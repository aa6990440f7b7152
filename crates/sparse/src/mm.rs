//! MatrixMarket coordinate-format I/O.
//!
//! Supports the subset of the format used by the University of
//! Florida Sparse Matrix Collection (the paper's matrix source):
//! `matrix coordinate {real|integer|pattern} {general|symmetric}`.
//! Symmetric files are expanded to their full (general) pattern on
//! read, matching how SpMV benchmarks consume them.
//!
//! There is one reader, [`read_csr`], and it streams: it asks its
//! [`Read`] for one 64 KiB block at a time, hands the whole lines read
//! so far to the parser, and carries the partial last line to the
//! front of the block for the next read; so besides the matrix being
//! assembled it holds one block (a line longer than a block grows it
//! to that line), never the whole text.
//!
//! There is one grammar, read by one field cursor that never crosses
//! the `\n` ending a line: the banner, the size line and every entry.
//! Fields split on exactly the Unicode whitespace `str` splitting
//! uses. An index that is a plain digit run is read as the cursor
//! scans it; any other index field goes to `parse_index`, the one
//! place an index is rejected. Values go through `str::parse::<f64>`,
//! so every value keeps its exact bits. The parser's own line count
//! numbers every error, a byte that is not UTF-8 included (each block
//! is checked before it is parsed). Newlines are counted only after an
//! error stops the parse: the rest of the input is still read and
//! checked, so the error reported is the one a check of the whole
//! input would give — a stream failure first, then the first byte that
//! is not UTF-8, then the parse error. Entries that arrive row-major
//! with strictly increasing columns — the order [`write_csr`] and the
//! SuiteSparse collection emit — are appended straight onto the CSR
//! arrays. The first entry out of that order (a shuffled file or a
//! duplicate), and every symmetric file, switches the assembly to COO
//! triplets, summed and sorted by [`Csr::from_coo`].

use std::io::{BufWriter, ErrorKind, Read, Write};
use std::ops::Range;
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
    let toks: Vec<&str> = Cursor::new(line).fields().collect();
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

/// A cursor over the whitespace-separated fields of a run of lines
/// that never crosses `\n`: its fields end at the end of the line,
/// and only [`Cursor::line`] moves it to the next. ASCII bytes are
/// classified inline; a non-ASCII character is decoded where the
/// cursor meets one and tested with [`char::is_whitespace`].
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Cursor<'a> {
        Cursor { text, pos: 0 }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.text.len()
    }

    /// Byte length of the character at `pos` and whether it separates
    /// fields; `None` at `\n` or the end of the text.
    #[inline(always)]
    fn class(&self, pos: usize) -> Option<(usize, bool)> {
        match *self.text.as_bytes().get(pos)? {
            b'\n' => None,
            b' ' | b'\t' | b'\r' | 0x0b | 0x0c => Some((1, true)),
            b if b.is_ascii() => Some((1, false)),
            _ => self
                .text
                .get(pos..)
                .and_then(|rest| rest.chars().next())
                .map(|c| (c.len_utf8(), c.is_whitespace())),
        }
    }

    /// Skips separators; whether a field starts at the cursor.
    #[inline(always)]
    fn at_field(&mut self) -> bool {
        while let Some((len, space)) = self.class(self.pos) {
            if !space {
                return true;
            }
            self.pos += len;
        }
        false
    }

    /// The next field on the line, or `None` at its end.
    #[inline(always)]
    fn field(&mut self) -> Option<&'a str> {
        if !self.at_field() {
            return None;
        }
        let (start, bytes) = (self.pos, self.text.as_bytes());
        loop {
            // Printable ASCII never separates fields.
            while matches!(bytes.get(self.pos), Some(b'!'..=b'~')) {
                self.pos += 1;
            }
            match self.class(self.pos) {
                Some((len, false)) => self.pos += len,
                _ => break,
            }
        }
        // Both ends sit on character boundaries.
        self.text.get(start..self.pos)
    }

    /// The fields left on the line.
    fn fields(mut self) -> impl Iterator<Item = &'a str> {
        std::iter::from_fn(move || self.field())
    }

    /// The next field on the line as an index, or `None` at its end. A
    /// run of up to 19 digits is read as it is scanned; any other field
    /// is handed to [`parse_index`], which accepts or rejects it.
    #[inline(always)]
    fn index(&mut self, what: &str, line: usize) -> Result<Option<usize>> {
        if !self.at_field() {
            return Ok(None);
        }
        let (start, bytes) = (self.pos, self.text.as_bytes());
        let mut v = 0u64;
        while let Some(d) = bytes.get(self.pos).map(|b| b.wrapping_sub(b'0')).filter(|&d| d <= 9) {
            v = v.wrapping_mul(10).wrapping_add(u64::from(d));
            self.pos += 1;
        }
        // Up to 19 digits cannot overflow a `u64`.
        let digits = self.pos - start;
        if (1..=19).contains(&digits) && !matches!(self.class(self.pos), Some((_, false))) {
            if let Ok(v) = usize::try_from(v) {
                return Ok(Some(v));
            }
        }
        self.pos = start;
        self.field().map(|f| parse_index(f, what, line)).transpose()
    }

    /// The 1-based `(row, col, value)` of the entry line at the cursor:
    /// `None` for a blank or comment line; the fields after the entry
    /// are left unread.
    #[inline(always)]
    fn entry(&mut self, line: usize, pattern: bool) -> Result<Option<(usize, usize, f64)>> {
        if self.at_field() && self.text.as_bytes().get(self.pos) == Some(&b'%') {
            return Ok(None);
        }
        let Some(r) = self.index("row index", line)? else { return Ok(None) };
        let c = self.index("column index", line)?;
        let c = c.ok_or_else(|| parse_error(line, "missing column index"))?;
        if r == 0 || c == 0 {
            return Err(parse_error(line, "MatrixMarket indices are 1-based"));
        }
        let v = if pattern {
            1.0
        } else {
            let s = self.field().ok_or_else(|| parse_error(line, "missing value field"))?;
            s.parse::<f64>().map_err(|_| parse_error(line, format!("invalid value: {s:?}")))?
        };
        Ok(Some((r, c, v)))
    }

    /// The rest of the line, without its `\n`; the cursor moves past
    /// it.
    #[inline(always)]
    fn line(&mut self) -> &'a str {
        if self.text.as_bytes().get(self.pos) == Some(&b'\n') {
            self.pos += 1;
            return "";
        }
        let rest = self.text.get(self.pos..).unwrap_or_default();
        let len = rest.bytes().position(|b| b == b'\n').unwrap_or(rest.len());
        self.pos += (len + 1).min(rest.len());
        // `\n` is one byte, so `len` is a char boundary.
        rest.get(..len).unwrap_or_default()
    }
}

/// Entry storage while scanning: CSR arrays built in place while
/// entries arrive row-major with strictly increasing columns, COO
/// triplets (`rows` is `Some`) once one does not.
struct Assembly {
    nrows: usize,
    ncols: usize,
    /// In-place mode: start of every row up to the current one.
    rowptr: Vec<usize>,
    /// In-place mode: the least row-major key (`row << 32 | col`) the
    /// next entry may have.
    next: u64,
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
            next: 0,
            rows: (!in_place).then(|| Vec::with_capacity(cap)),
            colind: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
        }
    }

    /// Appends the 0-based entry `(r, c)`: in order, straight onto the
    /// CSR arrays.
    #[inline(always)]
    fn push(&mut self, r: usize, c: usize, v: f64) -> Result<()> {
        let (nrows, ncols) = (self.nrows, self.ncols);
        if r >= nrows || c >= ncols {
            return Err(SparseError::IndexOutOfBounds { row: r, col: c, nrows, ncols });
        }
        let key = u64::from(index_u32(r)) << 32 | u64::from(index_u32(c));
        match &mut self.rows {
            None if key >= self.next => {
                self.next = key + 1;
                if r >= self.rowptr.len() {
                    // Rows `current + 1 ..= r` start at this entry.
                    self.rowptr.resize(r + 1, self.colind.len());
                }
            }
            None => {
                let mut rows = self.demote();
                rows.push(index_u32(r));
                self.rows = Some(rows);
            }
            Some(rows) => rows.push(index_u32(r)),
        }
        self.colind.push(index_u32(c));
        self.values.push(v);
        Ok(())
    }

    /// Leaves in-place mode: expands the row pointer into one row
    /// index per stored entry.
    fn demote(&mut self) -> Vec<u32> {
        let rowptr = std::mem::take(&mut self.rowptr);
        let nnz = self.colind.len();
        let mut rows = Vec::with_capacity(self.colind.capacity());
        for (i, &start) in rowptr.iter().enumerate() {
            let end = rowptr.get(i + 1).copied().unwrap_or(nnz);
            rows.resize(rows.len() + (end - start), index_u32(i));
        }
        rows
    }

    fn finish(self, symmetric: bool) -> Result<Csr> {
        let Assembly { nrows, ncols, mut rowptr, rows, colind, values, .. } = self;
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

/// Bytes the reader asks its stream for at a time. A line longer
/// than this grows the buffer to hold that line.
pub const BLOCK: usize = 64 * 1024;

/// A MatrixMarket stream cut into runs of whole lines, read through
/// one buffer of [`BLOCK`] bytes: each run ends at the last `\n` read
/// so far (or at the end of the stream), and the partial line after
/// it is carried to the front of the buffer for the next read.
struct Blocks<R> {
    reader: R,
    buf: Vec<u8>,
    /// Start of the bytes not yet handed out (the carried line).
    start: usize,
    /// End of the bytes read into `buf`.
    end: usize,
    /// Lines before the last run handed out, as the parser counted
    /// them.
    lines: usize,
    eof: bool,
    /// Whether runs are still checked for UTF-8 (off after the
    /// first invalid run, which is the error reported).
    check_utf8: bool,
}

impl<R: Read> Blocks<R> {
    fn new(reader: R) -> Blocks<R> {
        Blocks {
            reader,
            buf: vec![0; BLOCK],
            start: 0,
            end: 0,
            lines: 0,
            eof: false,
            check_utf8: true,
        }
    }

    /// The next run of whole lines in `buf` (the last line of the
    /// stream may lack its `\n`), or `None` at the end of the stream.
    fn fill(&mut self) -> std::io::Result<Option<Range<usize>>> {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        loop {
            if self.eof {
                self.start = self.end;
                return Ok((self.end > 0).then_some(0..self.end));
            }
            if self.end == self.buf.len() {
                self.buf.resize(2 * self.buf.len(), 0);
            }
            let n = match self.reader.read(&mut self.buf[self.end..]) {
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let read = self.end..self.end + n;
            self.end += n;
            self.eof = n == 0;
            // The carried line holds no `\n`: only the new bytes can
            // end the run.
            if let Some(k) = self.buf[read.clone()].iter().rposition(|&b| b == b'\n') {
                self.start = read.start + k + 1;
                return Ok(Some(0..self.start));
            }
        }
    }

    /// Checks that the run is UTF-8. An invalid run is a parse error
    /// on the line of its first bad byte, counted from `self.lines`.
    fn check(&mut self, run: Range<usize>) -> Result<&str> {
        let bytes = &self.buf[run];
        std::str::from_utf8(bytes).map_err(|e| {
            self.check_utf8 = false;
            parse_error(self.lines + 1 + newlines(&bytes[..e.valid_up_to()]), "invalid UTF-8")
        })
    }

    /// The next run of whole lines as text; `lines` is the number of
    /// lines before it.
    fn next(&mut self, lines: usize) -> Result<Option<&str>> {
        self.lines = lines;
        match self.fill()? {
            Some(run) => self.check(run).map(Some),
            None => Ok(None),
        }
    }

    /// Reads the rest of the stream after `err` stopped the parse. A
    /// stream failure anywhere, then the first bytes that are not
    /// UTF-8, take precedence over `err`, so the outcome is the one a
    /// check of the whole input before parsing would give. Only here
    /// are newlines counted, to number a later invalid byte.
    fn rest_error(&mut self, mut err: SparseError) -> SparseError {
        // The last run handed out is `buf[..start]`.
        self.lines += newlines(&self.buf[..self.start]);
        loop {
            match self.fill() {
                Ok(Some(run)) if self.check_utf8 => {
                    if let Err(e) = self.check(run.clone()) {
                        err = e;
                    }
                    self.lines += newlines(&self.buf[run]);
                }
                Ok(Some(_)) => {}
                Ok(None) => return err,
                Err(e) => return e.into(),
            }
        }
    }
}

fn newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// The entry section: what the size line declared and what has
/// arrived.
struct Section {
    symmetric: bool,
    pattern: bool,
    nnz: usize,
    seen: usize,
    entries: Assembly,
}

impl Section {
    fn new(header: MmHeader, size_line: &str, lineno: usize) -> Result<Section> {
        let dims: Vec<&str> = Cursor::new(size_line).fields().collect();
        if dims.len() != 3 {
            return Err(parse_error(
                lineno,
                format!("size line needs 3 fields, got {}", dims.len()),
            ));
        }
        let nrows = parse_index(dims[0], "row count", lineno)?;
        let ncols = parse_index(dims[1], "column count", lineno)?;
        let nnz = parse_index(dims[2], "nnz count", lineno)?;
        Coo::check_shape(nrows, ncols)?;
        let symmetric = header.symmetry == MmSymmetry::Symmetric;
        Ok(Section {
            symmetric,
            pattern: header.field == MmField::Pattern,
            nnz,
            seen: 0,
            entries: Assembly::new(nrows, ncols, nnz, !symmetric),
        })
    }

    /// Reads every entry line left at the cursor; `lineno` counts the
    /// lines read.
    fn read(&mut self, cur: &mut Cursor<'_>, lineno: &mut usize) -> Result<()> {
        while !cur.at_end() {
            *lineno += 1;
            if let Some((r, c, v)) = cur.entry(*lineno, self.pattern)? {
                self.entries.push(r - 1, c - 1, v)?;
                self.seen += 1;
            }
            cur.line();
        }
        Ok(())
    }

    fn finish(self, lineno: usize) -> Result<Csr> {
        if self.seen != self.nnz {
            return Err(parse_error(
                lineno,
                format!("header declared {} entries, found {}", self.nnz, self.seen),
            ));
        }
        self.entries.finish(self.symmetric)
    }
}

/// The parse proper, one run of lines at a time: the banner, then
/// comments up to the size line, then the entry section.
fn parse<R: Read>(blocks: &mut Blocks<R>) -> Result<Csr> {
    let mut header = None;
    let mut section: Option<Section> = None;
    let mut lineno = 0;
    while let Some(text) = blocks.next(lineno)? {
        let mut cur = Cursor::new(text);
        while section.is_none() && !cur.at_end() {
            let line = cur.line();
            lineno += 1;
            match header {
                None => header = Some(parse_header(line)?),
                Some(h) if Cursor::new(line).field().is_some_and(|f| !f.starts_with('%')) => {
                    section = Some(Section::new(h, line, lineno)?);
                }
                // A comment or blank line before the size line.
                Some(_) => {}
            }
        }
        if let Some(section) = &mut section {
            section.read(&mut cur, &mut lineno)?;
        }
    }
    match (header, section) {
        (_, Some(section)) => section.finish(lineno),
        (None, None) => Err(parse_error(1, "empty stream")),
        (Some(_), None) => Err(parse_error(lineno + 1, "missing size line")),
    }
}

/// Reads MatrixMarket coordinate text into CSR, streaming: the reader
/// holds one [`BLOCK`] of the input at a time (more only for a line
/// longer than a block), never the whole text. Symmetric inputs are
/// expanded to general.
///
/// # Errors
/// [`SparseError::Parse`] with the offending 1-based line number
/// (bytes that are not UTF-8 included),
/// [`SparseError::IndexOutOfBounds`] for an entry outside the
/// declared shape, [`SparseError::DimensionMismatch`] for a shape
/// beyond the `u32` index space, [`SparseError::Io`] when the stream
/// fails. After any other error the rest of the stream is still read,
/// so a stream failure or a non-UTF-8 byte later in the input is the
/// error reported, as if the whole input had been checked first.
pub fn read_csr<R: Read>(reader: R) -> Result<Csr> {
    let mut blocks = Blocks::new(reader);
    match parse(&mut blocks) {
        Err(e @ SparseError::Io(_)) => Err(e),
        Err(e) => Err(blocks.rest_error(e)),
        ok => ok,
    }
}

/// Reads a MatrixMarket file from disk into CSR.
///
/// # Errors
/// See [`read_csr`]; file-open failures surface as
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
