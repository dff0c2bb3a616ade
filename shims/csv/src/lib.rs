//! Offline stand-in for the `csv` crate.
//!
//! The build environment has no network and no vendored registry, so the
//! workspace ships the slice of `csv`'s API it uses: a buffered RFC-4180
//! reader with header handling and strict-arity (`flexible(false)`)
//! enforcement, and a writer that quotes fields containing delimiters,
//! quotes, or newlines. Parsing covers quoted fields, embedded `""`
//! escapes, embedded newlines inside quotes, and `\n`, `\r\n` and lone
//! `\r` record terminators.
//!
//! The reader scans each buffered slice for the next `,` `\n` `\r` or `"`
//! and copies the run of bytes before it in one go. A record is one
//! `String` plus field end offsets, as upstream lays it out, so
//! [`Reader::read_record`] refills a caller's record without allocating
//! and UTF-8 is validated once per record. The writer renders into one
//! owned buffer and hands it to the sink in 64 KiB chunks.
//!
//! One small addition serves the chunk-parallel loader in `relation`,
//! which scans the records after the header itself:
//! [`Reader::record_offset`] reports the byte at which the next record
//! starts. [`push_field`] and [`needs_quotes`] expose the writer's
//! quoting rule to renderers that build their own buffers, and
//! [`find_any`] the reader's byte search to scanners that parse their own.

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

/// Input buffer size of the reader and flush threshold of the writer.
const CHUNK: usize = 64 * 1024;

/// Error type (`csv::Error` stand-in).
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CSV error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::new(e.to_string())
    }
}

/// One parsed record of string fields (`csv::StringRecord` stand-in): the
/// fields' text back to back in one `String`, plus each field's end offset.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct StringRecord {
    text: String,
    ends: Vec<usize>,
}

impl StringRecord {
    /// An empty record, for reuse with [`Reader::read_record`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterate the fields as `&str`.
    pub fn iter(&self) -> StringRecordIter<'_> {
        StringRecordIter {
            record: self,
            next: 0,
        }
    }

    /// Field by position.
    pub fn get(&self, i: usize) -> Option<&str> {
        let end = *self.ends.get(i)?;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        Some(&self.text[start..end])
    }
}

impl fmt::Debug for StringRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StringRecord(")?;
        f.debug_list().entries(self.iter()).finish()?;
        write!(f, ")")
    }
}

/// Iterator over a record's fields.
#[derive(Debug, Clone)]
pub struct StringRecordIter<'a> {
    record: &'a StringRecord,
    next: usize,
}

impl<'a> Iterator for StringRecordIter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let field = self.record.get(self.next)?;
        self.next += 1;
        Some(field)
    }
}

impl<'a> IntoIterator for &'a StringRecord {
    type Item = &'a str;
    type IntoIter = StringRecordIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Reader configuration (`csv::ReaderBuilder` stand-in).
#[derive(Debug, Clone)]
pub struct ReaderBuilder {
    has_headers: bool,
    flexible: bool,
}

impl Default for ReaderBuilder {
    fn default() -> Self {
        ReaderBuilder {
            has_headers: true,
            flexible: false,
        }
    }
}

impl ReaderBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the first record is a header row.
    pub fn has_headers(&mut self, yes: bool) -> &mut Self {
        self.has_headers = yes;
        self
    }

    /// Whether records of differing arity are accepted.
    pub fn flexible(&mut self, yes: bool) -> &mut Self {
        self.flexible = yes;
        self
    }

    pub fn from_reader<R: Read>(&self, reader: R) -> Reader<R> {
        Reader {
            input: BufReader::with_capacity(CHUNK, reader),
            has_headers: self.has_headers,
            flexible: self.flexible,
            headers: None,
            headers_read: false,
            expected_arity: None,
            skip_lf: false,
            offset: 0,
        }
    }
}

/// Where the scanner stands inside the current field. It persists across
/// buffer refills, so a field or a quote pair may straddle them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FieldState {
    Unquoted,
    Quoted,
    /// Just read a `"` inside quotes: a closing quote, or half of `""`.
    QuoteInQuoted,
}

/// Buffered CSV reader (`csv::Reader` stand-in).
#[derive(Debug)]
pub struct Reader<R: Read> {
    input: BufReader<R>,
    has_headers: bool,
    flexible: bool,
    headers: Option<StringRecord>,
    headers_read: bool,
    expected_arity: Option<usize>,
    /// The last record ended on `\r`; a `\n` right after it belongs to the
    /// same terminator.
    skip_lf: bool,
    /// Bytes consumed from the input so far.
    offset: u64,
}

impl<R: Read> Reader<R> {
    /// The header record (reads it on first call).
    pub fn headers(&mut self) -> Result<&StringRecord, Error> {
        if !self.headers_read {
            self.headers_read = true;
            let mut record = StringRecord::new();
            if self.read_raw(&mut record)? {
                self.expected_arity = Some(record.len());
                self.headers = Some(record);
            }
        }
        // Upstream returns an empty record at EOF rather than erroring.
        Ok(self.headers.get_or_insert_with(StringRecord::default))
    }

    /// Read the next data record into `record`, reusing its buffers.
    /// Returns `false` at end of input.
    pub fn read_record(&mut self, record: &mut StringRecord) -> Result<bool, Error> {
        if self.has_headers && !self.headers_read {
            self.headers()?;
        }
        if !self.read_raw(record)? {
            return Ok(false);
        }
        if !self.flexible {
            let expected = *self.expected_arity.get_or_insert(record.len());
            if record.len() != expected {
                return Err(Error::new(format!(
                    "record has {} fields, but the previous record has {expected}",
                    record.len()
                )));
            }
        }
        Ok(true)
    }

    /// Iterate the data records, one fresh [`StringRecord`] each.
    pub fn records(&mut self) -> RecordsIter<'_, R> {
        RecordsIter { rdr: self }
    }

    /// Byte offset, from the start of the input, at which the next record
    /// starts: past every record read so far, including the `\n` of a
    /// `\r\n` terminator. At end of input it is the input's length.
    pub fn record_offset(&mut self) -> Result<u64, Error> {
        self.take_pending_lf()?;
        Ok(self.offset)
    }

    fn consume(&mut self, n: usize) {
        self.input.consume(n);
        self.offset += n as u64;
    }

    /// Skip the `\n` of a `\r\n` whose `\r` ended the last record.
    fn take_pending_lf(&mut self) -> Result<(), Error> {
        if std::mem::take(&mut self.skip_lf) && self.input.fill_buf()?.first() == Some(&b'\n') {
            self.consume(1);
        }
        Ok(())
    }

    /// Parse one record into `record` and validate its UTF-8, or return
    /// `false` at end of input.
    fn read_raw(&mut self, record: &mut StringRecord) -> Result<bool, Error> {
        record.ends.clear();
        let mut bytes = std::mem::take(&mut record.text).into_bytes();
        bytes.clear();
        let scanned = self.scan_record(&mut bytes, &mut record.ends);
        match String::from_utf8(bytes) {
            Ok(text) if record.ends.iter().all(|&end| text.is_char_boundary(end)) => {
                record.text = text;
                scanned
            }
            invalid => {
                let bytes = invalid.map_or_else(|e| e.into_bytes(), String::into_bytes);
                let error = first_invalid_field(&bytes, &record.ends);
                record.ends.clear();
                // With every finished field valid, only an unterminated
                // quoted field can hold the bad bytes: report that instead.
                match error {
                    Some(e) => Err(e),
                    None => scanned,
                }
            }
        }
    }

    /// Copy one record's field bytes into `bytes` and each field's end
    /// offset into `ends`, or return `false` at end of input.
    fn scan_record(&mut self, bytes: &mut Vec<u8>, ends: &mut Vec<usize>) -> Result<bool, Error> {
        self.take_pending_lf()?;
        let mut state = FieldState::Unquoted;
        let mut saw_any = false;
        loop {
            let buf = self.input.fill_buf()?;
            if buf.is_empty() {
                if state == FieldState::Quoted {
                    return Err(Error::new("unterminated quoted field"));
                }
                if !saw_any {
                    return Ok(false);
                }
                ends.push(bytes.len());
                return Ok(true);
            }
            saw_any = true;
            let (used, terminator) = scan_slice(buf, &mut state, bytes, ends);
            self.consume(used);
            if let Some(terminator) = terminator {
                self.skip_lf = terminator == b'\r';
                return Ok(true);
            }
        }
    }
}

/// Scan `buf` from the start in `state`, appending field bytes and field
/// ends. Returns the bytes consumed and, if the record ended inside
/// `buf`, its terminator (`\n` or `\r`).
fn scan_slice(
    buf: &[u8],
    state: &mut FieldState,
    bytes: &mut Vec<u8>,
    ends: &mut Vec<usize>,
) -> (usize, Option<u8>) {
    let mut i = 0;
    while i < buf.len() {
        let rest = &buf[i..];
        match *state {
            FieldState::Unquoted => {
                let Some(k) = find_any(rest, [b',', b'\n', b'\r', b'"']) else {
                    bytes.extend_from_slice(rest);
                    break;
                };
                bytes.extend_from_slice(&rest[..k]);
                i += k + 1;
                match rest[k] {
                    // A quote opens quoting only while the field is empty.
                    b'"' if bytes.len() == ends.last().copied().unwrap_or(0) => {
                        *state = FieldState::Quoted;
                    }
                    b'"' => bytes.push(b'"'),
                    b',' => ends.push(bytes.len()),
                    terminator => {
                        ends.push(bytes.len());
                        return (i, Some(terminator));
                    }
                }
            }
            FieldState::Quoted => {
                let Some(k) = find_any(rest, [b'"']) else {
                    bytes.extend_from_slice(rest);
                    break;
                };
                bytes.extend_from_slice(&rest[..k]);
                i += k + 1;
                *state = FieldState::QuoteInQuoted;
            }
            FieldState::QuoteInQuoted => {
                if rest[0] == b'"' {
                    bytes.push(b'"');
                    i += 1;
                    *state = FieldState::Quoted;
                } else {
                    *state = FieldState::Unquoted;
                }
            }
        }
    }
    (buf.len(), None)
}

/// Index of the first byte of `bytes` that is one of `needles`. Tests
/// eight bytes per step: for a word `w`, `(w - 0x01..) & !w & 0x80..` has
/// its lowest set bit in the lowest zero byte of `w` (higher bits may be
/// spurious), so the lowest bit over `w ^ needle` for every needle is the
/// first match.
#[inline]
pub fn find_any<const N: usize>(bytes: &[u8], needles: [u8; N]) -> Option<usize> {
    const LO: u64 = u64::from_le_bytes([0x01; 8]);
    const HI: u64 = u64::from_le_bytes([0x80; 8]);
    let mut words = bytes.chunks_exact(8);
    for (k, word) in (&mut words).enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        let hits = needles.iter().fold(0, |acc, &n| {
            let x = w ^ (LO * u64::from(n));
            acc | (x.wrapping_sub(LO) & !x & HI)
        });
        if hits != 0 {
            return Some(8 * k + hits.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let base = bytes.len() - tail.len();
    tail.iter()
        .position(|b| needles.contains(b))
        .map(|i| base + i)
}

/// The error for the first field in `ends` that is not valid UTF-8.
fn first_invalid_field(bytes: &[u8], ends: &[usize]) -> Option<Error> {
    let mut start = 0;
    for &end in ends {
        if let Err(e) = std::str::from_utf8(&bytes[start..end]) {
            return Some(Error::new(format!("invalid UTF-8 in field: {e}")));
        }
        start = end;
    }
    None
}

/// Iterator over data records.
pub struct RecordsIter<'r, R: Read> {
    rdr: &'r mut Reader<R>,
}

impl<R: Read> Iterator for RecordsIter<'_, R> {
    type Item = Result<StringRecord, Error>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut record = StringRecord::new();
        match self.rdr.read_record(&mut record) {
            Ok(true) => Some(Ok(record)),
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

/// Buffered CSV writer (`csv::Writer` stand-in). Records render into one
/// owned buffer, handed to the sink whenever it reaches 64 KiB, on
/// [`Writer::flush`], and (ignoring errors) on drop.
#[derive(Debug)]
pub struct Writer<W: Write> {
    out: W,
    buf: Vec<u8>,
}

impl<W: Write> Writer<W> {
    pub fn from_writer(writer: W) -> Self {
        Writer {
            out: writer,
            buf: Vec::with_capacity(CHUNK),
        }
    }

    /// Write one record, quoting fields that need it.
    pub fn write_record<I, T>(&mut self, record: I) -> Result<(), Error>
    where
        I: IntoIterator<Item = T>,
        T: AsRef<str>,
    {
        for (k, field) in record.into_iter().enumerate() {
            if k > 0 {
                self.buf.push(b',');
            }
            push_field(&mut self.buf, field.as_ref());
        }
        self.buf.push(b'\n');
        if self.buf.len() >= CHUNK {
            self.write_buf()?;
        }
        Ok(())
    }

    pub fn flush(&mut self) -> Result<(), Error> {
        self.write_buf()?;
        self.out.flush()?;
        Ok(())
    }

    fn write_buf(&mut self) -> Result<(), Error> {
        // Empty the buffer even on error, so drop does not retry it.
        let result = self.out.write_all(&self.buf);
        self.buf.clear();
        Ok(result?)
    }
}

/// Whether [`Writer`] quotes `field`: it holds a delimiter, a quote or a
/// line break.
pub fn needs_quotes(field: &str) -> bool {
    field
        .bytes()
        .any(|b| matches!(b, b'"' | b',' | b'\n' | b'\r'))
}

/// Append `field` to `buf` exactly as [`Writer`] renders it: verbatim, or
/// quoted with each `"` doubled when [`needs_quotes`] says so.
pub fn push_field(buf: &mut Vec<u8>, field: &str) {
    if !needs_quotes(field) {
        buf.extend_from_slice(field.as_bytes());
        return;
    }
    buf.push(b'"');
    for (i, part) in field.as_bytes().split(|&b| b == b'"').enumerate() {
        if i > 0 {
            buf.extend_from_slice(b"\"\"");
        }
        buf.extend_from_slice(part);
    }
    buf.push(b'"');
}

impl<W: Write> Drop for Writer<W> {
    fn drop(&mut self) {
        let _ = self.write_buf();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(text: &str) -> (StringRecord, Vec<StringRecord>) {
        let mut rdr = ReaderBuilder::new()
            .has_headers(true)
            .flexible(false)
            .from_reader(text.as_bytes());
        let headers = rdr.headers().unwrap().clone();
        let records: Vec<_> = rdr.records().map(|r| r.unwrap()).collect();
        (headers, records)
    }

    #[test]
    fn plain_fields_and_headers() {
        let (h, recs) = read_all("a,b,c\n1,2,3\n4,5,6\n");
        assert_eq!(h.iter().collect::<Vec<_>>(), vec!["a", "b", "c"]);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].iter().collect::<Vec<_>>(), vec!["4", "5", "6"]);
    }

    #[test]
    fn quoted_fields_with_commas_newlines_and_escapes() {
        let (_, recs) = read_all("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n\"line1\nline2\",z\n");
        assert_eq!(recs[0].get(0), Some("x,y"));
        assert_eq!(recs[0].get(1), Some("he said \"hi\""));
        assert_eq!(recs[1].get(0), Some("line1\nline2"));
    }

    #[test]
    fn crlf_terminators() {
        let (_, recs) = read_all("a,b\r\n1,2\r\n");
        assert_eq!(recs[0].iter().collect::<Vec<_>>(), vec!["1", "2"]);
    }

    #[test]
    fn missing_final_newline() {
        let (_, recs) = read_all("a,b\n1,2");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].get(1), Some("2"));
    }

    #[test]
    fn ragged_rows_rejected_when_strict() {
        let mut rdr = ReaderBuilder::new()
            .has_headers(true)
            .flexible(false)
            .from_reader("a,b\n1\n".as_bytes());
        rdr.headers().unwrap();
        let results: Vec<_> = rdr.records().collect();
        assert!(results[0].is_err());
    }

    #[test]
    fn ragged_rows_allowed_when_flexible() {
        let mut rdr = ReaderBuilder::new()
            .has_headers(true)
            .flexible(true)
            .from_reader("a,b\n1\n1,2,3\n".as_bytes());
        rdr.headers().unwrap();
        let results: Vec<_> = rdr.records().map(|r| r.unwrap()).collect();
        assert_eq!(results[0].len(), 1);
        assert_eq!(results[1].len(), 3);
    }

    #[test]
    fn unterminated_quote_rejected() {
        let mut rdr = ReaderBuilder::new().from_reader("a,b\n\"oops,2\n".as_bytes());
        rdr.headers().unwrap();
        assert!(rdr.records().next().unwrap().is_err());
    }

    #[test]
    fn writer_round_trips_tricky_fields() {
        let mut out = Vec::new();
        {
            let mut w = Writer::from_writer(&mut out);
            w.write_record(["addr", "note"]).unwrap();
            w.write_record(["12 Main, Apt 4", "said \"hi\"\nbye"])
                .unwrap();
            w.flush().unwrap();
        }
        let text = String::from_utf8(out.clone()).unwrap();
        let (h, recs) = read_all(&text);
        assert_eq!(h.iter().collect::<Vec<_>>(), vec!["addr", "note"]);
        assert_eq!(recs[0].get(0), Some("12 Main, Apt 4"));
        assert_eq!(recs[0].get(1), Some("said \"hi\"\nbye"));
    }

    #[test]
    fn empty_input_yields_no_records() {
        let mut rdr = ReaderBuilder::new().from_reader("".as_bytes());
        assert_eq!(rdr.headers().unwrap().len(), 0);
        assert!(rdr.records().next().is_none());
    }

    #[test]
    fn read_record_reuses_one_record() {
        let mut rdr = ReaderBuilder::new().from_reader("a,b\nlonger,x\n1,\"\"\n".as_bytes());
        let mut record = StringRecord::new();
        assert!(rdr.read_record(&mut record).unwrap());
        assert_eq!(record.iter().collect::<Vec<_>>(), ["longer", "x"]);
        assert!(rdr.read_record(&mut record).unwrap());
        assert_eq!(format!("{record:?}"), r#"StringRecord(["1", ""])"#);
        assert!(!rdr.read_record(&mut record).unwrap());
    }

    #[test]
    fn lone_cr_ends_a_record_and_crlf_is_one_terminator() {
        let mut rdr = ReaderBuilder::new()
            .has_headers(false)
            .flexible(true)
            .from_reader("a\rb\r\nc\r\r\n".as_bytes());
        let got: Vec<Vec<String>> = rdr
            .records()
            .map(|r| r.unwrap().iter().map(String::from).collect())
            .collect();
        assert_eq!(got, [vec!["a"], vec!["b"], vec!["c"], vec![""]]);
    }

    #[test]
    fn fields_split_inside_a_character_are_invalid_utf8() {
        // 0xC3 0xA9 is "é"; split by a comma, each half is invalid.
        let mut rdr = ReaderBuilder::new()
            .has_headers(false)
            .from_reader(&b"\xC3,\xA9\n"[..]);
        let err = rdr.records().next().unwrap().unwrap_err();
        assert!(err.to_string().contains("invalid UTF-8 in field"), "{err}");
    }

    #[test]
    fn writer_flushes_in_chunks_and_on_drop() {
        let mut out = Vec::new();
        {
            let mut w = Writer::from_writer(&mut out);
            let field = "x".repeat(1000);
            for _ in 0..100 {
                w.write_record([field.as_str()]).unwrap();
            }
            assert!(w.buf.len() < CHUNK);
        }
        assert_eq!(out.len(), 100 * 1001);
    }

    #[test]
    fn record_offset_counts_terminators_and_pending_lf() {
        let mut rdr = ReaderBuilder::new().from_reader("a,b\r\n1,\"x\ny\"\r\n2,3".as_bytes());
        assert_eq!(rdr.record_offset().unwrap(), 0);
        rdr.headers().unwrap();
        // The header ended on `\r`; its `\n` is part of the terminator.
        assert_eq!(rdr.record_offset().unwrap(), 5);
        let mut record = StringRecord::new();
        assert!(rdr.read_record(&mut record).unwrap());
        assert_eq!(record.get(1), Some("x\ny"));
        assert_eq!(rdr.record_offset().unwrap(), 14);
        assert!(rdr.read_record(&mut record).unwrap());
        assert_eq!(rdr.record_offset().unwrap(), 17);
        assert!(!rdr.read_record(&mut record).unwrap());
    }

    #[test]
    fn find_any_matches_a_byte_scan() {
        // Needles at every position of word-sized and tail-sized inputs,
        // next to bytes that set the high bit or sit one above a needle.
        let filler = [b'a', 0x80, 0xFF, b'#', b'-', 0x00];
        for len in 0..40 {
            for at in 0..=len {
                for &fill in &filler {
                    let mut bytes = vec![fill; len];
                    if at < len {
                        bytes[at] = b'\r';
                    }
                    let want = bytes.iter().position(|b| b",\n\r\"".contains(b));
                    assert_eq!(find_any(&bytes, [b',', b'\n', b'\r', b'"']), want);
                    assert_eq!(find_any(&bytes, [b'\r']), want);
                }
            }
        }
    }

    #[test]
    fn push_field_matches_the_writer() {
        for field in ["plain", "", "a,b", "say \"hi\"", "x\ny", "\r", "é"] {
            let mut out = Vec::new();
            Writer::from_writer(&mut out).write_record([field]).unwrap();
            let mut buf = Vec::new();
            push_field(&mut buf, field);
            buf.push(b'\n');
            assert_eq!(buf, out, "{field:?}");
            assert_eq!(needs_quotes(field), buf[0] == b'"', "{field:?}");
        }
    }

    /// The byte-at-a-time parser this crate shipped before the slice
    /// scanner, kept verbatim (records as `Vec<String>`) as the oracle
    /// for the differential test below.
    mod oracle {
        use super::super::Error;
        use std::io::{BufReader, Read};

        pub struct Reader<R: Read> {
            input: BufReader<R>,
            has_headers: bool,
            flexible: bool,
            headers: Option<Vec<String>>,
            headers_read: bool,
            expected_arity: Option<usize>,
            buf: Vec<u8>,
            buf_pos: usize,
            eof: bool,
        }

        impl<R: Read> Reader<R> {
            pub fn new(reader: R, has_headers: bool, flexible: bool) -> Self {
                Reader {
                    input: BufReader::new(reader),
                    has_headers,
                    flexible,
                    headers: None,
                    headers_read: false,
                    expected_arity: None,
                    buf: Vec::new(),
                    buf_pos: 0,
                    eof: false,
                }
            }

            pub fn headers(&mut self) -> Result<&Vec<String>, Error> {
                if !self.headers_read {
                    self.headers_read = true;
                    self.headers = self.read_raw_record()?;
                    if let Some(h) = &self.headers {
                        self.expected_arity = Some(h.len());
                    }
                }
                if self.headers.is_none() {
                    self.headers = Some(Vec::new());
                }
                Ok(self.headers.as_ref().unwrap())
            }

            pub fn next_record(&mut self) -> Option<Result<Vec<String>, Error>> {
                if self.has_headers && !self.headers_read {
                    if let Err(e) = self.headers() {
                        return Some(Err(e));
                    }
                }
                match self.read_raw_record() {
                    Err(e) => Some(Err(e)),
                    Ok(None) => None,
                    Ok(Some(rec)) => {
                        if !self.flexible {
                            let expected = *self.expected_arity.get_or_insert(rec.len());
                            if rec.len() != expected {
                                return Some(Err(Error::new(format!(
                                    "record has {} fields, but the previous record has {expected}",
                                    rec.len()
                                ))));
                            }
                        }
                        Some(Ok(rec))
                    }
                }
            }

            #[inline]
            fn next_byte(&mut self) -> Result<Option<u8>, Error> {
                if self.buf_pos == self.buf.len() {
                    if self.eof {
                        return Ok(None);
                    }
                    self.buf.resize(64 * 1024, 0);
                    let n = self.input.read(&mut self.buf)?;
                    self.buf.truncate(n);
                    self.buf_pos = 0;
                    if n == 0 {
                        self.eof = true;
                        return Ok(None);
                    }
                }
                let b = self.buf[self.buf_pos];
                self.buf_pos += 1;
                Ok(Some(b))
            }

            fn read_raw_record(&mut self) -> Result<Option<Vec<String>>, Error> {
                let mut fields: Vec<String> = Vec::new();
                let mut field: Vec<u8> = Vec::new();
                let mut in_quotes = false;
                let mut saw_any = false;
                loop {
                    let Some(b) = self.next_byte()? else {
                        if in_quotes {
                            return Err(Error::new("unterminated quoted field"));
                        }
                        if !saw_any {
                            return Ok(None);
                        }
                        fields.push(into_string(field)?);
                        return Ok(Some(fields));
                    };
                    saw_any = true;
                    if in_quotes {
                        if b == b'"' {
                            match self.peek_byte()? {
                                Some(b'"') => {
                                    self.buf_pos += 1;
                                    field.push(b'"');
                                }
                                _ => in_quotes = false,
                            }
                        } else {
                            field.push(b);
                        }
                        continue;
                    }
                    match b {
                        b'"' if field.is_empty() => in_quotes = true,
                        b',' => fields.push(into_string(std::mem::take(&mut field))?),
                        b'\n' => {
                            fields.push(into_string(field)?);
                            return Ok(Some(fields));
                        }
                        b'\r' => {
                            if self.peek_byte()? == Some(b'\n') {
                                self.buf_pos += 1;
                            }
                            fields.push(into_string(field)?);
                            return Ok(Some(fields));
                        }
                        other => field.push(other),
                    }
                }
            }

            #[inline]
            fn peek_byte(&mut self) -> Result<Option<u8>, Error> {
                if self.buf_pos == self.buf.len() && !self.eof {
                    let b = self.next_byte()?;
                    if b.is_some() {
                        self.buf_pos -= 1;
                    }
                    return Ok(b);
                }
                Ok(self.buf.get(self.buf_pos).copied())
            }
        }

        fn into_string(bytes: Vec<u8>) -> Result<String, Error> {
            String::from_utf8(bytes).map_err(|e| Error::new(format!("invalid UTF-8 in field: {e}")))
        }
    }

    /// SplitMix64: a tiny deterministic generator for the randomized test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A source that hands out 1–7 bytes per `read`, so records, quotes
    /// and multi-byte characters straddle buffer refills.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        rng: Rng,
    }

    impl Read for Trickle {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = (1 + self.rng.below(7))
                .min(out.len())
                .min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    type Step = Result<Vec<String>, String>;

    fn oracle_steps(data: &[u8], seed: u64, has_headers: bool, flexible: bool) -> Vec<Step> {
        let src = Trickle {
            data: data.to_vec(),
            pos: 0,
            rng: Rng(seed),
        };
        let mut rdr = oracle::Reader::new(src, has_headers, flexible);
        let mut steps = Vec::new();
        if has_headers {
            match rdr.headers() {
                Ok(h) => steps.push(Ok(h.clone())),
                Err(e) => return vec![Err(e.to_string())],
            }
        }
        while let Some(step) = rdr.next_record() {
            let failed = step.is_err();
            steps.push(step.map_err(|e| e.to_string()));
            if failed {
                break;
            }
        }
        steps
    }

    fn scanner_steps(data: &[u8], seed: u64, has_headers: bool, flexible: bool) -> Vec<Step> {
        let src = Trickle {
            data: data.to_vec(),
            pos: 0,
            rng: Rng(seed),
        };
        let mut rdr = ReaderBuilder::new()
            .has_headers(has_headers)
            .flexible(flexible)
            .from_reader(src);
        let fields = |r: &StringRecord| r.iter().map(String::from).collect::<Vec<_>>();
        let mut steps = Vec::new();
        if has_headers {
            match rdr.headers() {
                Ok(h) => steps.push(Ok(fields(h))),
                Err(e) => return vec![Err(e.to_string())],
            }
        }
        let mut record = StringRecord::new();
        loop {
            match rdr.read_record(&mut record) {
                Ok(true) => steps.push(Ok(fields(&record))),
                Ok(false) => break,
                Err(e) => {
                    steps.push(Err(e.to_string()));
                    break;
                }
            }
        }
        steps
    }

    #[test]
    fn slice_scanner_matches_byte_parser_on_random_inputs() {
        // "é" whole, and its two halves alone, plus a byte never valid.
        let tokens: [&[u8]; 10] = [
            b"a",
            "é".as_bytes(),
            b",",
            b"\"",
            b"\"",
            b"\r",
            b"\n",
            b"\xC3",
            b"\xA9",
            b"\xFF",
        ];
        let mut rng = Rng(0x5EED);
        let mut errors = 0;
        for case in 0..2_000u64 {
            let len = rng.below(40);
            let mut data = Vec::new();
            for _ in 0..len {
                // Invalid bytes are rarer, so most inputs parse further.
                let t = if rng.below(4) == 0 {
                    rng.below(tokens.len())
                } else {
                    rng.below(7)
                };
                data.extend_from_slice(tokens[t]);
            }
            let has_headers = case % 2 == 0;
            let flexible = case % 4 < 2;
            let seed = rng.next();
            let want = oracle_steps(&data, seed, has_headers, flexible);
            let got = scanner_steps(&data, seed ^ 1, has_headers, flexible);
            assert_eq!(
                got, want,
                "input {data:?} has_headers={has_headers} flexible={flexible}"
            );
            errors += usize::from(want.iter().any(Result::is_err));
        }
        // The alphabet must exercise the error paths, not only the happy one.
        assert!(errors > 200, "only {errors} inputs hit an error");
    }
}
