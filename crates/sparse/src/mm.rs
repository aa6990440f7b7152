//! MatrixMarket coordinate-format I/O.
//!
//! Supports the subset of the format used by the University of
//! Florida Sparse Matrix Collection (the paper's matrix source):
//! `matrix coordinate {real|integer|pattern} {general|symmetric}`.
//! Symmetric files are expanded to their full (general) pattern on
//! read, matching how SpMV benchmarks consume them.
//!
//! The reader is one pass of a byte cursor over the text
//! ([`parse_csr`]): lines end at `\n`, fields are separated by
//! whitespace, indices are parsed with checked integer arithmetic and
//! values with `str::parse::<f64>` on the field, so every value keeps
//! its exact bits. Entries that arrive row-major with strictly
//! increasing columns — the order [`write_csr`] and the SuiteSparse
//! collection emit — are assembled into CSR in place, with no
//! coordinate copy. The first entry out of that order (a shuffled
//! file or a duplicate), and every symmetric file, switches the
//! assembly to COO triplets, summed and sorted by
//! [`Csr::from_coo`].

use std::io::{BufWriter, Read, Write};
use std::path::Path;

use crate::coo::Coo;
use crate::csr::Csr;
use crate::error::SparseError;
use crate::index_u32;
use crate::Result;

/// Value field type declared in the MatrixMarket header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmField {
    /// Floating point entries.
    Real,
    /// Integer entries (read as `f64`).
    Integer,
    /// Pattern-only entries (values read as `1.0`).
    Pattern,
}

/// Symmetry declared in the MatrixMarket header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmSymmetry {
    /// All entries stored explicitly.
    General,
    /// Only the lower triangle stored; expanded on read.
    Symmetric,
}

/// Parsed MatrixMarket header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmHeader {
    /// Value field type.
    pub field: MmField,
    /// Symmetry kind.
    pub symmetry: MmSymmetry,
}

fn parse_error(line: usize, detail: impl Into<String>) -> SparseError {
    SparseError::Parse { line, detail: detail.into() }
}

fn parse_header(line: &str) -> Result<MmHeader> {
    let toks: Vec<&str> = Fields::new(line).collect();
    if toks.len() < 5 || !toks[0].eq_ignore_ascii_case("%%MatrixMarket") {
        return Err(parse_error(1, format!("not a MatrixMarket header: {line:?}")));
    }
    if !toks[1].eq_ignore_ascii_case("matrix") || !toks[2].eq_ignore_ascii_case("coordinate") {
        return Err(parse_error(
            1,
            format!("only 'matrix coordinate' is supported, got {:?} {:?}", toks[1], toks[2]),
        ));
    }
    let field = match toks[3].to_ascii_lowercase().as_str() {
        "real" => MmField::Real,
        "integer" => MmField::Integer,
        "pattern" => MmField::Pattern,
        other => return Err(parse_error(1, format!("unsupported field type {other:?}"))),
    };
    let symmetry = match toks[4].to_ascii_lowercase().as_str() {
        "general" => MmSymmetry::General,
        "symmetric" => MmSymmetry::Symmetric,
        other => return Err(parse_error(1, format!("unsupported symmetry {other:?}"))),
    };
    Ok(MmHeader { field, symmetry })
}

/// The text's lines (without their `\n`), numbered from 1.
struct Lines<'a> {
    text: &'a str,
    pos: usize,
    /// Number of the line last returned (0 before the first).
    lineno: usize,
}

impl<'a> Lines<'a> {
    fn next(&mut self) -> Option<&'a str> {
        let rest = self.text.get(self.pos..).filter(|r| !r.is_empty())?;
        let len = rest.bytes().position(|b| b == b'\n').unwrap_or(rest.len());
        self.pos += len + 1;
        self.lineno += 1;
        // `\n` is one byte, so `len` is a char boundary.
        Some(&rest[..len])
    }
}

/// Bytes that separate fields within a line (`\n` ends the line).
fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0b | 0x0c)
}

/// The whitespace-separated fields of one line. ASCII bytes are
/// classified directly; a non-ASCII character is decoded and tested
/// with [`char::is_whitespace`], so fields split on exactly the
/// Unicode whitespace `str` splitting uses.
struct Fields<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Fields<'a> {
    fn new(line: &'a str) -> Fields<'a> {
        Fields { line, pos: 0 }
    }

    /// Byte length of the character at `pos` and whether it is
    /// whitespace.
    fn class(&self, pos: usize) -> (usize, bool) {
        match self.line.as_bytes()[pos] {
            b if is_blank(b) => (1, true),
            b if b.is_ascii() => (1, false),
            _ => self
                .line
                .get(pos..)
                .and_then(|rest| rest.chars().next())
                .map_or((1, false), |c| (c.len_utf8(), c.is_whitespace())),
        }
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let len = self.line.len();
        while self.pos < len {
            let (step, space) = self.class(self.pos);
            if !space {
                break;
            }
            self.pos += step;
        }
        let start = self.pos;
        while self.pos < len {
            let (step, space) = self.class(self.pos);
            if space {
                break;
            }
            self.pos += step;
        }
        // Both ends sit on character boundaries.
        (self.pos > start).then(|| &self.line[start..self.pos])
    }
}

/// Parses a non-negative decimal (optional leading `+`, the grammar of
/// `str::parse::<usize>`) with checked arithmetic.
fn parse_index(s: &str, what: &str, line: usize) -> Result<usize> {
    let invalid = || parse_error(line, format!("invalid {what}: {s:?}"));
    let digits = s.strip_prefix('+').unwrap_or(s).as_bytes();
    if digits.is_empty() {
        return Err(invalid());
    }
    let mut v = 0usize;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return Err(invalid());
        }
        v = v.checked_mul(10).and_then(|v| v.checked_add(usize::from(d))).ok_or_else(invalid)?;
    }
    Ok(v)
}

/// 1-based `(row, col, value)` of one entry line.
type Entry = (usize, usize, f64);

/// Reads one entry line under the full grammar: `None` for a blank
/// or comment line; extra trailing fields are ignored.
fn parse_entry(line: &str, lineno: usize, pattern: bool) -> Result<Option<Entry>> {
    let mut fields = Fields::new(line);
    let r = match fields.next() {
        Some(f) if !f.starts_with('%') => parse_index(f, "row index", lineno)?,
        _ => return Ok(None),
    };
    let c = fields.next().ok_or_else(|| parse_error(lineno, "missing column index"))?;
    let c = parse_index(c, "column index", lineno)?;
    if r == 0 || c == 0 {
        return Err(parse_error(lineno, "MatrixMarket indices are 1-based"));
    }
    let v = if pattern {
        1.0
    } else {
        let s = fields.next().ok_or_else(|| parse_error(lineno, "missing value field"))?;
        s.parse::<f64>().map_err(|_| parse_error(lineno, format!("invalid value: {s:?}")))?
    };
    Ok(Some((r, c, v)))
}

/// The fast path for the line starting at `pos`: a blank line, a
/// comment, or an all-ASCII `row col [value]` entry whose indices are
/// plain nonzero digit runs. Returns the entry (`None` for a blank or
/// comment line) and the start of the next line. Anything else — a
/// sign, a non-ASCII byte next to a field, a missing or malformed
/// field — returns `None`, and the caller re-reads the line with
/// [`parse_entry`], which owns the full grammar and its errors. One
/// byte walk per line, instead of a line split and a field iterator,
/// takes about 40 % off the parse of a row-major file.
fn scan_entry(text: &str, pos: usize, pattern: bool) -> Option<(Option<Entry>, usize)> {
    let b = text.as_bytes();
    let skip_blank = |mut p: usize| {
        while b.get(p).copied().is_some_and(is_blank) {
            p += 1;
        }
        p
    };
    let next_line =
        |p: usize| b[p..].iter().position(|&c| c == b'\n').map_or(b.len(), |k| p + k + 1);
    let digits = |mut p: usize| -> Option<(usize, usize)> {
        let (start, mut v) = (p, 0usize);
        while let Some(d) = b.get(p).map(|c| c.wrapping_sub(b'0')).filter(|&d| d <= 9) {
            v = v.checked_mul(10)?.checked_add(usize::from(d))?;
            p += 1;
        }
        (p > start && v > 0).then_some((v, p))
    };
    // A field must end at a separator, or (for the last one read) at
    // the end of the line.
    let ends_field = |p: usize, last: bool| match b.get(p) {
        Some(&c) if is_blank(c) => true,
        Some(b'\n') | None => last,
        _ => false,
    };
    let p = skip_blank(pos);
    match b.get(p) {
        None => return Some((None, p)),
        Some(b'\n') => return Some((None, p + 1)),
        Some(b'%') => return Some((None, next_line(p))),
        _ => {}
    }
    let (r, p) = digits(p).filter(|&(_, p)| ends_field(p, false))?;
    let (c, p) = digits(skip_blank(p)).filter(|&(_, p)| ends_field(p, pattern))?;
    if pattern {
        return Some((Some((r, c, 1.0)), next_line(p)));
    }
    let start = skip_blank(p);
    let mut end = start;
    while b.get(end).is_some_and(|&c| c.is_ascii() && c != b'\n' && !is_blank(c)) {
        end += 1;
    }
    if end == start || !ends_field(end, true) {
        return None;
    }
    let v = text.get(start..end)?.parse::<f64>().ok()?;
    Some((Some((r, c, v)), next_line(end)))
}

/// Entry storage while scanning: CSR arrays built in place while
/// entries arrive row-major with strictly increasing columns, COO
/// triplets (`rows` is `Some`) once one does not.
struct Assembly {
    nrows: usize,
    ncols: usize,
    /// In-place mode: start of every row up to the current one.
    rowptr: Vec<usize>,
    /// Triplet mode: the row of every entry.
    rows: Option<Vec<u32>>,
    colind: Vec<u32>,
    values: Vec<f64>,
}

impl Assembly {
    fn new(nrows: usize, ncols: usize, nnz: usize, in_place: bool) -> Assembly {
        // Reserve from the header's declared counts, but cap the
        // up-front allocation: a corrupt or hostile header can declare
        // absurd counts, and aborting on allocation failure is worse
        // than growing incrementally for the (rare) genuinely huge file.
        const MAX_RESERVE: usize = 1 << 24;
        let cap = nnz.min(MAX_RESERVE);
        let mut rowptr = Vec::with_capacity(if in_place { nrows.min(MAX_RESERVE) + 1 } else { 1 });
        rowptr.push(0);
        Assembly {
            nrows,
            ncols,
            rowptr,
            rows: (!in_place).then(|| Vec::with_capacity(cap)),
            colind: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
        }
    }

    /// Appends the 0-based entry `(r, c)`.
    fn push(&mut self, r: usize, c: usize, v: f64) -> Result<()> {
        let (nrows, ncols) = (self.nrows, self.ncols);
        if r >= nrows || c >= ncols {
            return Err(SparseError::IndexOutOfBounds { row: r, col: c, nrows, ncols });
        }
        if self.rows.is_none() {
            let current = self.rowptr.len() - 1;
            let row_is_empty = self.rowptr[current] == self.colind.len();
            let in_order = r > current
                || (r == current
                    && (row_is_empty || self.colind.last().is_some_and(|&last| c > last as usize)));
            if in_order {
                // Rows `current + 1 ..= r` start at the next entry.
                self.rowptr.resize(r + 1, self.colind.len());
            } else {
                self.demote();
            }
        }
        if let Some(rows) = &mut self.rows {
            rows.push(index_u32(r));
        }
        self.colind.push(index_u32(c));
        self.values.push(v);
        Ok(())
    }

    /// Leaves in-place mode: expands the row pointer into one row
    /// index per stored entry.
    fn demote(&mut self) {
        let rowptr = std::mem::take(&mut self.rowptr);
        let nnz = self.colind.len();
        let mut rows = Vec::with_capacity(self.colind.capacity());
        for (i, &start) in rowptr.iter().enumerate() {
            let end = rowptr.get(i + 1).copied().unwrap_or(nnz);
            rows.resize(rows.len() + (end - start), index_u32(i));
        }
        self.rows = Some(rows);
    }

    fn finish(self, symmetric: bool) -> Result<Csr> {
        let Assembly { nrows, ncols, mut rowptr, rows, colind, values } = self;
        match rows {
            None => {
                rowptr.resize(nrows + 1, colind.len());
                Csr::from_raw(nrows, ncols, rowptr, colind, values)
            }
            Some(rows) => {
                let mut coo = Coo::from_triplets(nrows, ncols, rows, colind, values)?;
                if symmetric {
                    coo.symmetrize();
                }
                Ok(Csr::from_coo(&coo))
            }
        }
    }
}

/// Parses MatrixMarket coordinate text into CSR, in place: the input
/// is borrowed, never copied (symmetric inputs are expanded to
/// general).
///
/// # Errors
/// [`SparseError::Parse`] with the offending 1-based line number
/// (bytes that are not UTF-8 included),
/// [`SparseError::IndexOutOfBounds`] for an entry outside the
/// declared shape, [`SparseError::DimensionMismatch`] for a shape
/// beyond the `u32` index space.
pub fn parse_csr(bytes: &[u8]) -> Result<Csr> {
    let text = std::str::from_utf8(bytes).map_err(|e| {
        let line = 1 + bytes[..e.valid_up_to()].iter().filter(|&&b| b == b'\n').count();
        parse_error(line, "invalid UTF-8")
    })?;
    let mut lines = Lines { text, pos: 0, lineno: 0 };
    let header = parse_header(lines.next().ok_or_else(|| parse_error(1, "empty stream"))?)?;

    // Skip comments, find the size line.
    let size_line = loop {
        let Some(line) = lines.next() else {
            return Err(parse_error(lines.lineno + 1, "missing size line"));
        };
        if Fields::new(line).next().is_some_and(|f| !f.starts_with('%')) {
            break line;
        }
    };
    let lineno = lines.lineno;
    let dims: Vec<&str> = Fields::new(size_line).collect();
    if dims.len() != 3 {
        return Err(parse_error(lineno, format!("size line needs 3 fields, got {}", dims.len())));
    }
    let nrows = parse_index(dims[0], "row count", lineno)?;
    let ncols = parse_index(dims[1], "column count", lineno)?;
    let nnz = parse_index(dims[2], "nnz count", lineno)?;
    Coo::check_shape(nrows, ncols)?;

    let symmetric = header.symmetry == MmSymmetry::Symmetric;
    let pattern = header.field == MmField::Pattern;
    let mut entries = Assembly::new(nrows, ncols, nnz, !symmetric);
    let mut seen = 0usize;
    while lines.pos < text.len() {
        let entry = match scan_entry(text, lines.pos, pattern) {
            Some((entry, next)) => {
                lines.pos = next;
                lines.lineno += 1;
                entry
            }
            None => {
                let Some(line) = lines.next() else { break };
                parse_entry(line, lines.lineno, pattern)?
            }
        };
        if let Some((r, c, v)) = entry {
            entries.push(r - 1, c - 1, v)?;
            seen += 1;
        }
    }
    if seen != nnz {
        return Err(parse_error(
            lines.lineno,
            format!("header declared {nnz} entries, found {seen}"),
        ));
    }
    entries.finish(symmetric)
}

/// Reads a MatrixMarket stream into CSR: the whole stream, then
/// [`parse_csr`] over it.
///
/// # Errors
/// See [`parse_csr`]; stream failures surface as [`SparseError::Io`].
pub fn read_csr<R: Read>(mut reader: R) -> Result<Csr> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    parse_csr(&bytes)
}

/// Reads a MatrixMarket file from disk into CSR.
///
/// # Errors
/// See [`parse_csr`]; file-open failures surface as
/// [`SparseError::Io`].
pub fn read_csr_file<P: AsRef<Path>>(path: P) -> Result<Csr> {
    read_csr(std::fs::File::open(path)?)
}

/// Writes a matrix in `matrix coordinate real general` form.
///
/// # Errors
/// [`SparseError::Io`] on write failure.
pub fn write_csr<W: Write>(writer: W, a: &Csr) -> Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by spmv-sparse")?;
    writeln!(w, "{} {} {}", a.nrows(), a.ncols(), a.nnz())?;
    for (i, cols, vals) in a.rows() {
        for (k, &c) in cols.iter().enumerate() {
            writeln!(w, "{} {} {:e}", i + 1, c + 1, vals[k])?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Writes a matrix to a MatrixMarket file on disk.
///
/// # Errors
/// [`SparseError::Io`] on create/write failure.
pub fn write_csr_file<P: AsRef<Path>>(path: P, a: &Csr) -> Result<()> {
    write_csr(std::fs::File::create(path)?, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GENERAL: &str = "%%MatrixMarket matrix coordinate real general\n\
        % a comment\n\
        3 3 4\n\
        1 1 2.0\n\
        1 3 -1.5\n\
        2 2 4\n\
        3 1 1e2\n";

    #[test]
    fn reads_general_real() {
        let a = read_csr(GENERAL.as_bytes()).unwrap();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.get(0, 2), -1.5);
        assert_eq!(a.get(2, 0), 100.0);
    }

    #[test]
    fn reads_symmetric_and_expands() {
        let s = "%%MatrixMarket matrix coordinate real symmetric\n\
                 2 2 2\n\
                 1 1 3.0\n\
                 2 1 5.0\n";
        let a = read_csr(s.as_bytes()).unwrap();
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.get(0, 1), 5.0);
        assert_eq!(a.get(1, 0), 5.0);
        assert!(a.is_symmetric(1e-14));
    }

    #[test]
    fn reads_pattern() {
        let s = "%%MatrixMarket matrix coordinate pattern general\n\
                 2 3 2\n\
                 1 2\n\
                 2 3\n";
        let a = read_csr(s.as_bytes()).unwrap();
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 2), 1.0);
    }

    #[test]
    fn reads_integer() {
        let s = "%%MatrixMarket matrix coordinate integer general\n\
                 1 1 1\n\
                 1 1 7\n";
        let a = read_csr(s.as_bytes()).unwrap();
        assert_eq!(a.get(0, 0), 7.0);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_csr("%%NotMM\n1 1 0\n".as_bytes()).is_err());
        assert!(read_csr("%%MatrixMarket matrix array real general\n".as_bytes()).is_err());
        assert!(read_csr("%%MatrixMarket matrix coordinate complex general\n1 1 0\n".as_bytes())
            .is_err());
    }

    #[test]
    fn rejects_zero_based_indices() {
        let s = "%%MatrixMarket matrix coordinate real general\n1 1 1\n0 1 5.0\n";
        match read_csr(s.as_bytes()) {
            Err(SparseError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_wrong_entry_count() {
        let s = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(read_csr(s.as_bytes()).is_err());
    }

    #[test]
    fn write_read_roundtrip() {
        let a = read_csr(GENERAL.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_csr(&mut buf, &a).unwrap();
        let b = read_csr(buf.as_slice()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_stream_is_error() {
        assert!(read_csr("".as_bytes()).is_err());
    }

    #[test]
    fn truncated_file_is_error_not_panic() {
        // Header promises 4 entries, stream ends after 2.
        let s = "%%MatrixMarket matrix coordinate real general\n\
                 3 3 4\n\
                 1 1 2.0\n\
                 2 2 4.0\n";
        match read_csr(s.as_bytes()) {
            Err(SparseError::Parse { detail, .. }) => {
                assert!(detail.contains("declared 4"), "{detail}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // Truncated mid-entry: a row index with no column.
        let s2 = "%%MatrixMarket matrix coordinate real general\n\
                  2 2 2\n\
                  1 1 1.0\n\
                  2\n";
        assert!(read_csr(s2.as_bytes()).is_err());
        // Truncated before the size line.
        let s3 = "%%MatrixMarket matrix coordinate real general\n% only comments\n";
        assert!(read_csr(s3.as_bytes()).is_err());
    }

    #[test]
    fn oversized_declared_nnz_is_error_not_abort() {
        // A hostile header declaring ~10^18 entries must not reserve
        // that much memory up front; the entry-count check errors out.
        let s = format!(
            "%%MatrixMarket matrix coordinate real general\n2 2 {}\n1 1 1.0\n",
            10u64.pow(18)
        );
        match read_csr(s.as_bytes()) {
            Err(SparseError::Parse { detail, .. }) => {
                assert!(detail.contains("found 1"), "{detail}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn more_entries_than_declared_is_error() {
        let s = "%%MatrixMarket matrix coordinate real general\n\
                 2 2 1\n\
                 1 1 1.0\n\
                 2 2 2.0\n";
        assert!(read_csr(s.as_bytes()).is_err());
    }
}
