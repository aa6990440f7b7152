//! MatrixMarket reader contract: a golden table of edge inputs with
//! their exact outcomes, a no-panic property over truncated and
//! corrupted files, a differential property against `Csr::from_coo`
//! for shuffled, duplicated and symmetric entries, and stream
//! equivalence: every input read through a stream that hands out
//! random chunk sizes gives the outcome of one whole-slice read,
//! including inputs whose lines straddle the reader's block.

use std::io::{self, Read};

use proptest::prelude::*;

use spmv_sparse::mm::{read_csr, write_csr, BLOCK};
use spmv_sparse::{Coo, Csr, SparseError};

const GENERAL: &str = "%%MatrixMarket matrix coordinate real general\n";

/// The exact outcome of parsing one golden input.
#[derive(Debug)]
enum Expect {
    /// Parses to `nrows x ncols` with exactly these arrays (values
    /// compared bitwise).
    Ok {
        nrows: usize,
        ncols: usize,
        rowptr: &'static [usize],
        colind: &'static [u32],
        values: &'static [f64],
    },
    /// [`SparseError::Parse`] at this 1-based line.
    Parse(usize),
    /// [`SparseError::IndexOutOfBounds`] for this 0-based entry.
    OutOfBounds { row: usize, col: usize },
    /// [`SparseError::DimensionMismatch`] (shape beyond the `u32`
    /// index space).
    Shape,
}

fn ok(
    nrows: usize,
    ncols: usize,
    rowptr: &'static [usize],
    colind: &'static [u32],
    values: &'static [f64],
) -> Expect {
    Expect::Ok { nrows, ncols, rowptr, colind, values }
}

/// `(name, input, outcome)` for every edge case the reader pins.
fn golden() -> Vec<(&'static str, Vec<u8>, Expect)> {
    let raw = |text: &str| text.as_bytes().to_vec();
    let general = |rest: &str| format!("{GENERAL}{rest}").into_bytes();
    let header = |field: &str, symmetry: &str, rest: &str| {
        format!("%%MatrixMarket matrix coordinate {field} {symmetry}\n{rest}").into_bytes()
    };
    vec![
        // Line endings, whitespace and comments.
        (
            "crlf line endings",
            raw(&format!("{}\r\n% c\r\n2 2 2\r\n1 1 1.5\r\n2 2 -2\r\n", GENERAL.trim_end())),
            ok(2, 2, &[0, 1, 2], &[0, 1], &[1.5, -2.0]),
        ),
        (
            "tabs separate every field",
            b"%%MatrixMarket\tmatrix\tcoordinate\treal\tgeneral\n2\t2\t1\n\t1\t2\t3.0\t\n".to_vec(),
            ok(2, 2, &[0, 1, 1], &[1], &[3.0]),
        ),
        (
            "vertical tab and form feed are whitespace",
            general("2 2 1\n1\x0b2\x0c3.0\n"),
            ok(2, 2, &[0, 1, 1], &[1], &[3.0]),
        ),
        (
            "non-ASCII whitespace separates fields",
            general("2 2 2\n1\u{a0}1 1.0\n2\u{3000}2\u{2003}2.0\n"),
            ok(2, 2, &[0, 1, 2], &[0, 1], &[1.0, 2.0]),
        ),
        (
            "comments and blank lines between entries",
            general("% top\n\n  \n2 2 2\n1 1 1\n% mid\n   % indented\n\n2 1 4\n% tail\n"),
            ok(2, 2, &[0, 1, 2], &[0, 0], &[1.0, 4.0]),
        ),
        (
            "leading whitespace on entries",
            general("2 2 1\n   2 2 5\n"),
            ok(2, 2, &[0, 0, 1], &[1], &[5.0]),
        ),
        (
            "a lone carriage return does not end a line",
            general("2 2 2\n1 1 1.0\r2 2 2.0\n"),
            Expect::Parse(3),
        ),
        (
            "case-insensitive header with extra tokens",
            b"%%matrixmarket MATRIX Coordinate REAL General extra\n1 1 1\n1 1 2\n".to_vec(),
            ok(1, 1, &[0, 1], &[0], &[2.0]),
        ),
        (
            "byte-order mark before the header",
            raw(&format!("\u{feff}{GENERAL}1 1 0\n")),
            Expect::Parse(1),
        ),
        (
            "not a MatrixMarket banner",
            raw("%%NotMM matrix coordinate real general\n"),
            Expect::Parse(1),
        ),
        ("short banner", raw("%%MatrixMarket matrix coordinate real\n1 1 0\n"), Expect::Parse(1)),
        ("array format", raw("%%MatrixMarket matrix array real general\n1 1\n"), Expect::Parse(1)),
        ("complex field", header("complex", "general", "1 1 0\n"), Expect::Parse(1)),
        ("hermitian symmetry", header("real", "hermitian", "1 1 0\n"), Expect::Parse(1)),
        // Index forms.
        (
            "trailing extra fields are ignored",
            general("2 2 1\n1 2 3.0 extra 99\n"),
            ok(2, 2, &[0, 1, 1], &[1], &[3.0]),
        ),
        (
            "leading plus on sizes, indices and values",
            general("+2 +2 +1\n+2 +1 +3.5\n"),
            ok(2, 2, &[0, 0, 1], &[0], &[3.5]),
        ),
        ("leading zeros", general("02 02 01\n002 0001 1\n"), ok(2, 2, &[0, 0, 1], &[0], &[1.0])),
        ("lone plus sign", general("2 2 1\n+ 1 1.0\n"), Expect::Parse(3)),
        ("negative index", general("2 2 1\n-1 1 1.0\n"), Expect::Parse(3)),
        ("fractional index", general("2 2 1\n1.0 1 1.0\n"), Expect::Parse(3)),
        ("row overflows usize", general("2 2 1\n18446744073709551616 1 1.0\n"), Expect::Parse(3)),
        ("column overflows usize", general("2 2 1\n1 99999999999999999999 1\n"), Expect::Parse(3)),
        ("size overflows usize", general("2 18446744073709551616 1\n"), Expect::Parse(2)),
        ("zero row index", general("2 2 1\n0 1 5.0\n"), Expect::Parse(3)),
        ("zero column index", general("2 2 1\n1 0 5.0\n"), Expect::Parse(3)),
        ("bad column beats zero row", general("2 2 1\n0 x 5.0\n"), Expect::Parse(3)),
        ("zero index beats missing value", general("2 2 1\n0 1\n"), Expect::Parse(3)),
        ("row out of bounds", general("2 2 1\n3 1 1.0\n"), Expect::OutOfBounds { row: 2, col: 0 }),
        ("column out of bounds", general("2 3 1\n1 4 1\n"), Expect::OutOfBounds { row: 0, col: 3 }),
        ("rows beyond u32", general("4294967296 1 0\n"), Expect::Shape),
        // Missing fields.
        ("missing column", general("2 2 1\n1\n"), Expect::Parse(3)),
        ("missing value", general("2 2 1\n1 1\n"), Expect::Parse(3)),
        ("invalid value", general("2 2 1\n1 1 abc\n"), Expect::Parse(3)),
        ("size line with two fields", general("2 2\n1 1 1.0\n"), Expect::Parse(2)),
        ("size line with four fields", general("2 2 1 1\n1 1 1.0\n"), Expect::Parse(2)),
        ("non-numeric size", general("2 two 1\n"), Expect::Parse(2)),
        // Entry count.
        ("more entries than declared", general("2 2 1\n1 1 1.0\n2 2 2.0\n"), Expect::Parse(4)),
        (
            "more entries than declared, counted to the last line",
            general("2 2 1\n1 1 1.0\n2 2 2.0\n% tail\n\n"),
            Expect::Parse(6),
        ),
        ("fewer entries than declared", general("3 3 4\n1 1 2.0\n2 2 4.0\n"), Expect::Parse(4)),
        ("fewer entries, no final newline", general("3 3 4\n1 1 2.0\n2 2 4.0"), Expect::Parse(4)),
        ("hostile declared count", general("2 2 1000000000000000000\n1 1 1.0\n"), Expect::Parse(3)),
        // File types.
        (
            "pattern ignores trailing value fields",
            header("pattern", "general", "2 3 2\n1 2\n2 3 9.5\n"),
            ok(2, 3, &[0, 1, 2], &[1, 2], &[1.0, 1.0]),
        ),
        (
            "integer values",
            header("integer", "general", "1 2 2\n1 1 7\n1 2 -3\n"),
            ok(1, 2, &[0, 2], &[0, 1], &[7.0, -3.0]),
        ),
        (
            "symmetric expands the lower triangle",
            header("real", "symmetric", "3 3 3\n1 1 1\n2 1 2\n3 2 3\n"),
            ok(3, 3, &[0, 2, 4, 5], &[0, 1, 0, 2, 1], &[1.0, 2.0, 2.0, 3.0, 3.0]),
        ),
        (
            "symmetric pattern",
            header("pattern", "symmetric", "2 2 2\n1 1\n2 1\n"),
            ok(2, 2, &[0, 2, 3], &[0, 1, 0], &[1.0, 1.0, 1.0]),
        ),
        (
            "shuffled entries with duplicates are sorted and summed",
            general("2 2 4\n2 2 1\n1 2 3\n1 1 1\n2 2 0.5\n"),
            ok(2, 2, &[0, 2, 3], &[0, 1, 1], &[1.0, 3.0, 1.5]),
        ),
        (
            "value spellings keep their exact bits",
            general("1 6 6\n1 1 1e2\n1 2 -0.0\n1 3 .5\n1 4 5.\n1 5 inf\n1 6 -1.79769e308\n"),
            ok(
                1,
                6,
                &[0, 6],
                &[0, 1, 2, 3, 4, 5],
                &[100.0, -0.0, 0.5, 5.0, f64::INFINITY, -1.79769e308],
            ),
        ),
        // Degenerate files.
        ("empty stream", Vec::new(), Expect::Parse(1)),
        ("blank first line", b"\n1 1 0\n".to_vec(), Expect::Parse(1)),
        ("header only", GENERAL.as_bytes().to_vec(), Expect::Parse(2)),
        ("header only, no final newline", GENERAL.trim_end().as_bytes().to_vec(), Expect::Parse(2)),
        ("header and comments only", general("% only comments\n"), Expect::Parse(3)),
        ("empty matrix", general("4 4 0\n"), ok(4, 4, &[0, 0, 0, 0, 0], &[], &[])),
        ("zero-by-zero matrix", general("0 0 0\n"), ok(0, 0, &[0], &[], &[])),
        ("replacement character value", general("1 1 1\n1 1 \u{fffd}\n"), Expect::Parse(3)),
        // Bytes that are not UTF-8 are a parse error on their line.
        ("non-UTF-8 value", [&general("1 1 1\n1 1 ")[..], b"\xff\n"].concat(), Expect::Parse(3)),
    ]
}

fn check(name: &str, input: &[u8], want: &Expect) {
    let got = read_csr(input);
    match (want, &got) {
        (Expect::Ok { nrows, ncols, rowptr, colind, values }, Ok(a)) => {
            assert_eq!((a.nrows(), a.ncols()), (*nrows, *ncols), "{name}: shape");
            assert_eq!(a.rowptr(), *rowptr, "{name}: rowptr");
            assert_eq!(a.colind(), *colind, "{name}: colind");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a.values()), bits(values), "{name}: value bits");
        }
        (Expect::Parse(line), Err(SparseError::Parse { line: got, .. })) => {
            assert_eq!(got, line, "{name}: error line");
        }
        (
            Expect::OutOfBounds { row, col },
            Err(SparseError::IndexOutOfBounds { row: r, col: c, .. }),
        ) => {
            assert_eq!((r, c), (row, col), "{name}: offending entry");
        }
        (Expect::Shape, Err(SparseError::DimensionMismatch { .. })) => {}
        _ => panic!("{name}: expected {want:?}, got {got:?}"),
    }
}

#[test]
fn golden_inputs_have_exact_outcomes() {
    for (name, input, want) in golden() {
        check(name, &input, &want);
    }
}

/// A small valid file of each field/symmetry kind.
fn valid_files() -> Vec<Vec<u8>> {
    let a = spmv_sparse::gen::banded(12, 2, 0.8, 3).expect("generator");
    let mut general = Vec::new();
    write_csr(&mut general, &a).expect("serialize");
    vec![
        general,
        b"%%MatrixMarket matrix coordinate pattern symmetric\n% c\r\n4 4 4\n1 1\n2 1\n4 3\n4 4\n"
            .to_vec(),
        b"%%MatrixMarket matrix coordinate integer general\n3 3 4\n3 1 -2\n1 1 7\n2 3 +4\n1 1 1\n"
            .to_vec(),
    ]
}

#[test]
fn every_truncation_is_an_error_or_a_matrix() {
    for file in valid_files() {
        for cut in 0..=file.len() {
            // Must return, never panic; either outcome is allowed
            // (a cut at a line end can leave a well-formed prefix).
            let _ = read_csr(&file[..cut]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn corrupted_bytes_are_an_error_or_a_matrix(
        which in 0usize..3,
        flips in proptest::collection::vec((0u64..u64::MAX, 0u8..=255), 1..6),
    ) {
        let mut file = valid_files().swap_remove(which);
        let len = file.len() as u64;
        for (pos, byte) in flips {
            file[(pos % len) as usize] = byte;
        }
        let _ = read_csr(file.as_slice());
    }

    #[test]
    fn shuffled_duplicated_entries_match_from_coo(
        (nrows, ncols) in (1usize..30, 1usize..30),
        raw in proptest::collection::vec((0u64..u64::MAX, -4.0f64..4.0), 0..120),
        layout in 0u8..3,
    ) {
        // layout 0: as drawn (shuffled, duplicates likely);
        // layout 1: row-major with strictly increasing columns;
        // layout 2: symmetric header over lower-triangle entries.
        let symmetric = layout == 2;
        let n = if symmetric { nrows.max(ncols) } else { nrows };
        let m = if symmetric { n } else { ncols };
        let mut entries: Vec<(usize, usize, f64)> = raw
            .iter()
            .map(|&(k, v)| {
                let (r, c) = (((k >> 32) as usize) % n, (k as u32 as usize) % m);
                if symmetric && c > r { (c, r, v) } else { (r, c, v) }
            })
            .collect();
        if layout == 1 {
            entries.sort_by_key(|&(r, c, _)| (r, c));
            entries.dedup_by_key(|e| (e.0, e.1));
        }
        let symmetry = if symmetric { "symmetric" } else { "general" };
        let banner = format!("%%MatrixMarket matrix coordinate real {symmetry}");
        let mut text = format!("{banner}\n{n} {m} {}\n", entries.len());
        let mut coo = Coo::new(n, m).expect("shape");
        for &(r, c, v) in &entries {
            text.push_str(&format!("{} {} {v:e}\n", r + 1, c + 1));
            coo.push(r, c, v).expect("in bounds");
        }
        if symmetric {
            coo.symmetrize();
        }
        let want = Csr::from_coo(&coo);
        let got = read_csr(text.as_bytes()).expect("valid file");
        prop_assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()));
        prop_assert_eq!(got.rowptr(), want.rowptr());
        prop_assert_eq!(got.colind(), want.colind());
        let bits = |a: &Csr| a.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&want));
    }
}

/// A stream over `data` that hands out chunks of pseudo-random size,
/// from one byte up to more than one reader block, and now and then
/// an `Interrupted` error the reader must retry.
struct Chunked<'a> {
    data: &'a [u8],
    state: u64,
}

impl<'a> Chunked<'a> {
    fn new(data: &'a [u8], seed: u64) -> Chunked<'a> {
        Chunked { data, state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1 }
    }

    fn draw(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.state >> 33
    }
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let r = self.draw();
        if r.is_multiple_of(16) {
            return Err(io::Error::from(io::ErrorKind::Interrupted));
        }
        // Mostly short chunks (1..=64 bytes), sometimes up to 1.5 blocks.
        let size = if r.is_multiple_of(4) {
            1 + (r / 4) as usize % (BLOCK + BLOCK / 2)
        } else {
            1 + (r / 4) as usize % 64
        };
        let n = size.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// One read's outcome in comparable form: the CSR arrays with value
/// bits, or the error with its kind, line and detail.
fn outcome(got: Result<Csr, SparseError>) -> String {
    match got {
        Ok(a) => {
            let bits: Vec<u64> = a.values().iter().map(|v| v.to_bits()).collect();
            format!("{}x{} {:?} {:?} {bits:?}", a.nrows(), a.ncols(), a.rowptr(), a.colind())
        }
        Err(e) => format!("{e:?}"),
    }
}

/// Reads `input` whole and in `seeds` random chunkings; every
/// chunking must give the whole read's outcome, which is returned.
fn same_in_any_chunking(name: &str, input: &[u8], seeds: std::ops::Range<u64>) -> String {
    let whole = outcome(read_csr(input));
    for seed in seeds {
        let chunked = outcome(read_csr(Chunked::new(input, seed)));
        assert_eq!(chunked, whole, "{name}: chunking seed {seed}");
    }
    whole
}

#[test]
fn golden_inputs_read_the_same_in_any_chunking() {
    for (name, input, want) in golden() {
        same_in_any_chunking(name, &input, 0..16);
        check(name, &input, &want);
    }
}

#[test]
fn truncations_read_the_same_in_any_chunking() {
    for file in valid_files() {
        for cut in 0..=file.len() {
            same_in_any_chunking("truncation", &file[..cut], cut as u64..cut as u64 + 2);
        }
    }
}

/// A row-major general file of a band matrix spanning a few reader
/// blocks, and the matrix itself.
fn big_file() -> (Vec<u8>, Csr) {
    let a = spmv_sparse::gen::banded(1500, 3, 0.9, 7).expect("generator");
    let mut text = Vec::new();
    write_csr(&mut text, &a).expect("serialize");
    assert!(text.len() > 2 * BLOCK, "the file spans blocks");
    (text, a)
}

/// The byte offset where line `n` (1-based) of `text` starts.
fn line_start(text: &[u8], n: usize) -> usize {
    text.iter().enumerate().filter(|&(_, &b)| b == b'\n').nth(n - 2).map_or(0, |(i, _)| i + 1)
}

/// The 1-based line holding byte `pos` of `text`.
fn line_of(text: &[u8], pos: usize) -> usize {
    1 + text[..pos].iter().filter(|&&b| b == b'\n').count()
}

#[test]
fn crlf_lines_across_blocks() {
    let (text, a) = big_file();
    let crlf: Vec<u8> =
        text.iter().flat_map(|&b| if b == b'\n' { vec![b'\r', b'\n'] } else { vec![b] }).collect();
    let got = same_in_any_chunking("crlf", &crlf, 0..8);
    assert_eq!(got, outcome(Ok(a)));
}

#[test]
fn multibyte_comment_character_split_across_the_block_boundary() {
    let (text, a) = big_file();
    // A comment after the banner whose three-byte character starts
    // one byte before the end of the first block.
    let banner = line_start(&text, 2);
    let mut comment = b"% ".to_vec();
    comment.resize(BLOCK - 1 - banner, b'x');
    comment.extend_from_slice("\u{20ac} euro\n".as_bytes());
    let input = [&text[..banner], &comment, &text[banner..]].concat();
    assert_eq!(&input[BLOCK - 1..BLOCK + 2], "\u{20ac}".as_bytes());
    let got = same_in_any_chunking("split character", &input, 0..8);
    assert_eq!(got, outcome(Ok(a)));
}

#[test]
fn invalid_utf8_just_past_the_block_boundary() {
    let (mut text, _) = big_file();
    text[BLOCK] = 0xff;
    let line = line_of(&text, BLOCK);
    let got = same_in_any_chunking("invalid byte", &text, 0..8);
    assert_eq!(got, outcome(Err(SparseError::Parse { line, detail: "invalid UTF-8".into() })));
    // A grammar error earlier in the stream does not hide it: the
    // first byte that is not UTF-8 is the error, as if the whole
    // input had been checked first.
    let entry = line_start(&text, 4);
    text[entry] = b'x';
    assert_eq!(same_in_any_chunking("invalid byte after an error", &text, 0..4), got);
}

#[test]
fn final_line_without_newline_across_blocks() {
    let (text, a) = big_file();
    let got = same_in_any_chunking("no final newline", &text[..text.len() - 1], 0..8);
    assert_eq!(got, outcome(Ok(a)));
}

#[test]
fn out_of_order_entry_in_a_later_block_demotes_to_coo() {
    let (text, a) = big_file();
    // Move the first entry past the end of the first block: the
    // in-place assembly meets it there and falls back to triplets.
    let first = line_start(&text, 4);
    let second = line_start(&text, 5);
    let later = line_start(&text, line_of(&text, BLOCK) + 1);
    let input =
        [&text[..first], &text[second..later], &text[first..second], &text[later..]].concat();
    let got = same_in_any_chunking("demotion", &input, 0..8);
    assert_eq!(got, outcome(Ok(a)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn corrupted_bytes_read_the_same_in_any_chunking(
        which in 0usize..3,
        flips in proptest::collection::vec((0u64..u64::MAX, 0u8..=255), 1..6),
        seed in 0u64..u64::MAX,
    ) {
        let mut file = valid_files().swap_remove(which);
        let len = file.len() as u64;
        for (pos, byte) in flips {
            file[(pos % len) as usize] = byte;
        }
        same_in_any_chunking("corrupted", &file, seed..seed.saturating_add(4));
    }
}
