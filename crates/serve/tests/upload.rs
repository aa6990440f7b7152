//! Matrix uploads over HTTP stream from the socket into the
//! MatrixMarket reader: a daemon (server lane on an `ExecEngine`,
//! the workspace's only concurrency source) answers an upload that is
//! malformed at line 3 and then carries 2 MB of filler with a `400`
//! naming line 3, keeps serving, registers a valid upload, and counts
//! every upload's bytes and receive-and-parse time into
//! `spmv_serve_upload_*`, failed parses included.
//!
//! This is the only test in this binary that uploads a matrix, so
//! the process-wide upload counter moves only when it says so.

use std::sync::atomic::AtomicBool;
use std::sync::Mutex;

use spmv_kernels::ExecEngine;
use spmv_serve::SpmvService;
use spmv_sparse::{gen, mm};
use spmv_telemetry::metrics::serve_upload;
use spmv_telemetry::{http_request, MetricsServer};

/// A file whose line 3 is malformed, followed by ~2 MB of comment
/// lines the server still reads (and the parser checks for UTF-8).
fn malformed_at_line_3() -> Vec<u8> {
    let mut text = b"%%MatrixMarket matrix coordinate real general\n3 3 2\n1 x 1.0\n".to_vec();
    let filler = format!("% {}\n", "f".repeat(77));
    while text.len() < 2 << 20 {
        text.extend_from_slice(filler.as_bytes());
    }
    text
}

#[test]
fn uploads_stream_into_the_parser_and_are_counted() {
    let matrix = gen::banded(300, 3, 0.9, 5).expect("generator");
    let mut valid = Vec::new();
    mm::write_csr(&mut valid, &matrix).expect("serialize");
    let malformed = malformed_at_line_3();
    let uploads: [(&str, &[u8]); 3] = [("bad", &malformed), ("band", &valid), ("band", &valid)];

    let svc = SpmvService::new(1, 1, 8, 4);
    let mut server = MetricsServer::bind("127.0.0.1:0").expect("bind");
    server.set_read_timeout(std::time::Duration::from_millis(500));
    let addr = server.local_addr().expect("bound");
    let stop = AtomicBool::new(false);
    let before = (serve_upload().count(), serve_upload().seconds());
    let replies: Mutex<Vec<(u16, String)>> = Mutex::new(Vec::new());
    let (svc_ref, server_ref, stop_ref, replies_ref) = (&svc, &server, &stop, &replies);
    // Lane 0 serves; lane 1 uploads, scrapes, then stops the server.
    // Outcomes are asserted after the run, so a failed check cannot
    // leave the server lane waiting for a stop that never comes.
    ExecEngine::new(2).run(&move |lane| {
        if lane == 0 {
            server_ref.serve_with(Some(svc_ref), Some(stop_ref), None).expect("serve lane");
            return;
        }
        let record = |outcome: std::io::Result<(u16, Vec<u8>)>| {
            let (status, body) = outcome.unwrap_or((0, b"client error".to_vec()));
            replies_ref.lock().unwrap().push((status, String::from_utf8_lossy(&body).into()));
        };
        for (name, body) in uploads {
            record(http_request(addr, "POST", &format!("/v1/matrices/{name}"), body));
        }
        record(http_request(addr, "GET", "/metrics", b""));
        record(http_request(addr, "POST", "/control/stop", b""));
    });

    let replies = replies.into_inner().unwrap();
    let status: Vec<u16> = replies.iter().map(|r| r.0).collect();
    assert_eq!(status, [400, 200, 409, 200, 200], "{replies:?}");
    assert!(replies[0].1.contains("line 3"), "the 400 names line 3: {}", replies[0].1);
    assert!(svc.registry().get("bad").is_none(), "a failed parse registers nothing");
    assert!(svc.registry().get("band").is_some());

    // Every upload that reached the reader counts all its bytes —
    // the malformed one included, since the reader reads it to the
    // end — and the time spent receiving and parsing them.
    let bytes: usize = uploads.iter().map(|(_, body)| body.len()).sum();
    assert_eq!(serve_upload().count() - before.0, bytes as u64);
    assert!(serve_upload().seconds() > before.1);
    let metrics = &replies[3].1;
    let line = metrics
        .lines()
        .find(|l| l.starts_with("spmv_serve_upload_bytes_total "))
        .unwrap_or_else(|| panic!("no upload bytes family in:\n{metrics}"));
    assert_eq!(line, format!("spmv_serve_upload_bytes_total {}", before.0 + bytes as u64));
    assert!(metrics.contains("\nspmv_serve_upload_seconds_total "), "{metrics}");
}
