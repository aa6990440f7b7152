//! Policy 14 fixture: the blocking effect is transitive — the root
//! stays lock-free syntactically, but a helper it calls parks on a
//! mutex and dials a Unix socket; both findings carry the call chain.

use std::sync::Mutex;

pub struct Work {
    pub items: Mutex<Vec<u64>>,
}

pub fn run(q: &Work) {
    drain(q);
}

fn drain(q: &Work) {
    let mut g = q.items.lock().unwrap_or_else(|p| p.into_inner());
    g.clear();
    let _ = std::os::unix::net::UnixStream::connect("spmv.sock");
}
