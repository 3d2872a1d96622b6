//! Crash-safe append-only logs: a `key=value` line codec and the one
//! [`AppendLog`] that the fleet's checkpoint journal and the daemon's
//! acceptance journal are record schemas over.
//!
//! A crash leaves at most a truncated final line behind, so the format
//! is deliberately primitive: one record per line, space-separated
//! `key=value` fields, values percent-escaped so keys, separators and
//! newlines can never be forged by a value (a panic payload, an app
//! name with spaces, …). One rule covers every tear: a line counts only
//! once its newline is on disk, replay stops at the first line that is
//! torn, malformed or refused by the schema, and opening for append
//! truncates the file back to that valid prefix. A first line torn
//! before its newline means no record was ever written, so the file
//! restarts empty; a complete first line that is not the caller's
//! header is an error, never silently reinterpreted.
//!
//! # Examples
//!
//! ```
//! use droidsim_kernel::journal;
//!
//! let line = journal::encode_line(&[("index", "3"), ("payload", "boom at x=1")]);
//! let fields = journal::decode_line(&line).unwrap();
//! assert_eq!(journal::field(&fields, "index"), Some("3"));
//! assert_eq!(journal::field(&fields, "payload"), Some("boom at x=1"));
//! ```

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

/// Escapes a value so it contains no spaces, `=`, `%` or line breaks.
pub fn escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '=' => out.push_str("%3d"),
            '\n' => out.push_str("%0a"),
            '\r' => out.push_str("%0d"),
            _ => out.push(c),
        }
    }
    out
}

/// Reverses [`escape`]. Unknown or truncated `%` sequences are kept
/// verbatim rather than rejected — a journal line is either parseable
/// or discarded wholesale, never a hard error.
pub fn unescape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    let bytes = value.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 3 <= bytes.len() && value.is_char_boundary(i + 3) {
            match &value[i + 1..i + 3] {
                "25" => out.push('%'),
                "20" => out.push(' '),
                "3d" => out.push('='),
                "0a" => out.push('\n'),
                "0d" => out.push('\r'),
                _ => {
                    out.push('%');
                    i += 1;
                    continue;
                }
            }
            i += 3;
        } else {
            // Multi-byte UTF-8 sequences pass through untouched.
            let c = value[i..].chars().next().unwrap();
            out.push(c);
            i += c.len_utf8();
        }
    }
    out
}

/// Encodes one record as a `key=value key=value` line (no trailing
/// newline). Keys must be plain identifiers; values are escaped.
pub fn encode_line<K: AsRef<str>, V: AsRef<str>>(fields: &[(K, V)]) -> String {
    fields
        .iter()
        .map(|(k, v)| format!("{}={}", k.as_ref(), escape(v.as_ref())))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Decodes one line back into `(key, value)` pairs. Returns `None` for
/// a malformed line (no fields, or a field without `=`) — the caller
/// treats it as a truncated tail and stops reading.
pub fn decode_line(line: &str) -> Option<Vec<(String, String)>> {
    let line = line.trim_end_matches(['\n', '\r']);
    if line.is_empty() {
        return None;
    }
    let mut fields = Vec::new();
    for part in line.split(' ') {
        let (k, v) = part.split_once('=')?;
        if k.is_empty() {
            return None;
        }
        fields.push((k.to_owned(), unescape(v)));
    }
    Some(fields)
}

/// Looks up the first occurrence of `key` in decoded fields.
pub fn field<'a>(fields: &'a [(String, String)], key: &str) -> Option<&'a str> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// How an injected append fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The write fails outright before any byte reaches the file —
    /// the classic `ENOSPC` answer.
    Enospc,
    /// Roughly half the record's bytes land, then the write fails:
    /// the torn line a crash-during-append leaves, forced on demand.
    Short,
}

/// Fault hooks an [`AppendLog`] consults on every append, so a test or
/// a chaos run can force the failures a real disk produces. Both
/// default to injecting nothing.
pub trait LogFaults {
    /// Consulted once per append, before any byte is written.
    fn write_fault(&self) -> Option<WriteFault> {
        None
    }

    /// Consulted once per append after a clean write; an error stands
    /// in for the fsync's result.
    fn sync_fault(&self) -> Option<io::Error> {
        None
    }
}

/// The production hooks: no fault is ever injected.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl LogFaults for NoFaults {}

/// Why a log could not be read or opened.
#[derive(Debug)]
pub enum LogError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// The first line is missing, torn, or not the expected header.
    Header(String),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "{e}"),
            LogError::Header(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for LogError {}

impl From<io::Error> for LogError {
    fn from(e: io::Error) -> Self {
        LogError::Io(e)
    }
}

/// Decoded fields of one record, as a replay hands them to its schema.
pub type Fields = [(String, String)];

/// A crash-safe append handle (see module docs). After a failed write
/// or fsync — injected or real — the bytes past the last durable record
/// are untrusted, so the next append first rolls the file back to it:
/// a failed append never corrupts the records before it.
#[derive(Debug)]
pub struct AppendLog<F = NoFaults> {
    file: File,
    /// Bytes known fully written *and* fsync'd.
    clean_len: u64,
    /// A write or sync failed after `clean_len`: roll back before the
    /// next append.
    dirty: bool,
    faults: F,
}

impl<F: LogFaults> AppendLog<F> {
    /// Opens `path` for appending, creating it when missing: replays
    /// every record through `accept` (see [`replay`]), truncates a torn
    /// or refused tail, and writes `header` into a new, empty or
    /// torn-header file. The open is never fault-injected: a log that
    /// cannot even be opened should fail loudly, not degrade.
    pub fn open<K: AsRef<str>, V: AsRef<str>>(
        path: &Path,
        header: &[(K, V)],
        faults: F,
        accept: impl FnMut(&Fields) -> bool,
    ) -> Result<AppendLog<F>, LogError> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        // `None`: no record can precede a header that never completed.
        let valid = scan(BufReader::new(&file), path, header, accept)?.unwrap_or(0);
        if valid < file.metadata()?.len() {
            file.set_len(valid)?;
        }
        let mut clean_len = valid;
        if valid == 0 {
            let mut line = encode_line(header);
            line.push('\n');
            file.write_all(line.as_bytes())?;
            file.sync_data()?;
            clean_len = line.len() as u64;
        }
        Ok(AppendLog {
            file,
            clean_len,
            dirty: false,
            faults,
        })
    }

    /// Appends one record as a single `write_all` of the whole line
    /// and its newline, then fsyncs it. An error means the record is
    /// not journaled; the file is repaired before the next append.
    pub fn append<K: AsRef<str>, V: AsRef<str>>(&mut self, fields: &[(K, V)]) -> io::Result<()> {
        if self.dirty {
            self.file.set_len(self.clean_len)?;
            self.dirty = false;
        }
        let mut line = encode_line(fields);
        line.push('\n');
        match self.faults.write_fault() {
            // Refused before any byte lands: the file is still clean,
            // only the record is lost.
            Some(WriteFault::Enospc) => return Err(enospc_error()),
            Some(WriteFault::Short) => {
                self.dirty = true;
                self.file.write_all(&line.as_bytes()[..line.len() / 2])?;
                return Err(enospc_error());
            }
            None => {}
        }
        // From here a failure of unknown extent leaves the tail
        // untrusted. After a failed fsync the bytes may or may not be
        // on disk; the only safe stance is "not journaled".
        self.dirty = true;
        self.file.write_all(line.as_bytes())?;
        match self.faults.sync_fault() {
            Some(injected) => return Err(injected),
            None => self.file.sync_data()?,
        }
        self.dirty = false;
        self.clean_len += line.len() as u64;
        Ok(())
    }

    /// Whether the last append left untrusted bytes past the clean
    /// prefix (rolled back automatically before the next append).
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }
}

/// Replays the log at `path` without repairing it. The first line must
/// carry every `header` field with its value, else [`LogError::Header`];
/// each later newline-terminated record goes to `accept` in file order
/// until one is malformed or refused. Returns the byte length of the
/// valid prefix, up to and including the last accepted record.
pub fn replay<K: AsRef<str>, V: AsRef<str>>(
    path: &Path,
    header: &[(K, V)],
    accept: impl FnMut(&Fields) -> bool,
) -> Result<u64, LogError> {
    scan(BufReader::new(File::open(path)?), path, header, accept)?
        .ok_or_else(|| LogError::Header(format!("{}: missing or torn header", path.display())))
}

/// [`replay`] over an open reader; `None` when the first line has no
/// newline (an empty file, or a header torn mid-write).
fn scan<K: AsRef<str>, V: AsRef<str>>(
    mut reader: impl BufRead,
    path: &Path,
    header: &[(K, V)],
    mut accept: impl FnMut(&Fields) -> bool,
) -> Result<Option<u64>, LogError> {
    let mut line = Vec::new();
    let mut valid = reader.read_until(b'\n', &mut line)? as u64;
    if !line.ends_with(b"\n") {
        return Ok(None);
    }
    let found = std::str::from_utf8(&line).ok().and_then(decode_line);
    let matches = found.is_some_and(|found| {
        header
            .iter()
            .all(|(k, v)| field(&found, k.as_ref()) == Some(v.as_ref()))
    });
    if !matches {
        return Err(LogError::Header(format!(
            "{}: first line is not the header `{}` (a foreign file or a different run)",
            path.display(),
            encode_line(header)
        )));
    }
    loop {
        line.clear();
        let read = reader.read_until(b'\n', &mut line)?;
        if !line.ends_with(b"\n") {
            break; // EOF, or a record torn mid-write
        }
        // A complete-but-invalid line is part of the corrupt tail.
        let record = std::str::from_utf8(&line).ok().and_then(decode_line);
        if !record.is_some_and(|fields| accept(&fields)) {
            break;
        }
        valid += read as u64;
    }
    Ok(Some(valid))
}

/// The error an injected `ENOSPC` surfaces as. `StorageFull` is the
/// std mapping of `ENOSPC`, so real and injected full disks take the
/// same degraded path.
fn enospc_error() -> io::Error {
    io::Error::new(io::ErrorKind::StorageFull, "injected ENOSPC")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_hostile_values() {
        for v in [
            "plain",
            "two words",
            "a=b=c",
            "100%",
            "line\nbreak",
            "cr\rlf\n",
            "%20 literal",
            "",
            "naïve 视图",
        ] {
            assert_eq!(unescape(&escape(v)), v, "value {v:?}");
            let line = encode_line(&[("k", v)]);
            assert!(!line.contains('\n'), "escaped line must be single-line");
            let fields = decode_line(&line).unwrap();
            assert_eq!(field(&fields, "k"), Some(v));
        }
    }

    #[test]
    fn multi_field_lines_keep_order_and_values() {
        let line = encode_line(&[
            ("kind", "task"),
            ("index", "7"),
            ("why", "it broke = badly"),
        ]);
        let fields = decode_line(&line).unwrap();
        assert_eq!(fields.len(), 3);
        assert_eq!(field(&fields, "kind"), Some("task"));
        assert_eq!(field(&fields, "index"), Some("7"));
        assert_eq!(field(&fields, "why"), Some("it broke = badly"));
        assert_eq!(field(&fields, "missing"), None);
    }

    #[test]
    fn malformed_lines_decode_to_none() {
        assert_eq!(decode_line(""), None);
        assert_eq!(decode_line("\n"), None);
        assert_eq!(decode_line("no-equals-sign"), None);
        assert_eq!(decode_line("ok=1 truncated"), None);
        assert_eq!(decode_line("=value"), None);
    }

    #[test]
    fn unknown_escapes_pass_through() {
        assert_eq!(unescape("%zz"), "%zz");
        assert_eq!(unescape("tail%"), "tail%");
        assert_eq!(unescape("%2"), "%2");
    }

    const HEADER: [(&str, &str); 2] = [("kind", "test-log"), ("version", "1")];

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("droidsim-log-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("test.log")
    }

    /// The `id` of every record a replay accepts, in file order.
    fn ids(path: &Path) -> Vec<u64> {
        let mut ids = Vec::new();
        replay(path, &HEADER, |f| {
            if let Some(id) = field(f, "id").and_then(|v| v.parse().ok()) {
                ids.push(id);
            }
            true
        })
        .unwrap();
        ids
    }

    fn record(id: u64) -> [(&'static str, String); 2] {
        [("kind", "rec".to_owned()), ("id", id.to_string())]
    }

    /// Fault hooks that strike the listed (1-based) appends.
    #[derive(Debug, Default)]
    struct Scripted {
        writes: std::cell::Cell<u32>,
        syncs: std::cell::Cell<u32>,
        write_faults: Vec<(u32, WriteFault)>,
        sync_faults: Vec<u32>,
    }

    impl LogFaults for Scripted {
        fn write_fault(&self) -> Option<WriteFault> {
            self.writes.set(self.writes.get() + 1);
            let n = self.writes.get();
            self.write_faults
                .iter()
                .find(|(at, _)| *at == n)
                .map(|(_, fault)| *fault)
        }

        fn sync_fault(&self) -> Option<io::Error> {
            self.syncs.set(self.syncs.get() + 1);
            self.sync_faults
                .contains(&self.syncs.get())
                .then(|| io::Error::other("injected fsync failure"))
        }
    }

    #[test]
    fn every_byte_prefix_reopens_to_its_complete_records() {
        let path = scratch("prefixes");
        {
            let mut log = AppendLog::open(&path, &HEADER, NoFaults, |_| true).unwrap();
            for id in 1..=4 {
                log.append(&record(id)).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let complete = full[..cut].iter().filter(|&&b| b == b'\n').count();
            let mut log = AppendLog::open(&path, &HEADER, NoFaults, |_| true).unwrap();
            let kept: Vec<u64> = (1..complete as u64).collect();
            assert_eq!(ids(&path), kept, "cut at byte {cut}");
            // The next record lands on a clean line boundary.
            log.append(&record(9)).unwrap();
            let mut expected = kept;
            expected.push(9);
            assert_eq!(ids(&path), expected, "append after a cut at byte {cut}");
        }
    }

    #[test]
    fn replay_stops_at_the_first_refused_record_and_open_truncates_there() {
        let path = scratch("refused");
        std::fs::write(
            &path,
            "kind=test-log version=1\nkind=rec id=1\nkind=bogus id=2\nkind=rec id=3\n",
        )
        .unwrap();
        let accept = |f: &Fields| field(f, "kind") == Some("rec");
        let valid = replay(&path, &HEADER, accept).unwrap();
        assert_eq!(
            valid,
            "kind=test-log version=1\nkind=rec id=1\n".len() as u64
        );
        let _log = AppendLog::open(&path, &HEADER, NoFaults, accept).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), valid);
    }

    #[test]
    fn foreign_and_torn_headers() {
        let path = scratch("headers");
        std::fs::write(&path, "kind=test-log version=2\n").unwrap();
        for err in [
            replay(&path, &HEADER, |_| true).unwrap_err(),
            AppendLog::open(&path, &HEADER, NoFaults, |_| true).unwrap_err(),
        ] {
            assert!(matches!(err, LogError::Header(_)), "{err}");
        }
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "kind=test-log version=2\n",
            "a foreign file is never written to"
        );
        // A header torn mid-write is unreadable, but append recovery
        // restarts the file empty: no record can exist before it.
        std::fs::write(&path, "kind=test-l").unwrap();
        assert!(replay(&path, &HEADER, |_| true).is_err());
        let mut log = AppendLog::open(&path, &HEADER, NoFaults, |_| true).unwrap();
        log.append(&record(1)).unwrap();
        assert_eq!(ids(&path), vec![1]);
    }

    #[test]
    fn injected_write_faults_never_corrupt_the_accepted_prefix() {
        let path = scratch("write-faults");
        // Every odd append fails (alternating ENOSPC and short write);
        // the log must repair itself so every *successful* append
        // replays, and nothing before a failure is ever lost.
        let faults = Scripted {
            write_faults: vec![
                (1, WriteFault::Enospc),
                (3, WriteFault::Short),
                (5, WriteFault::Enospc),
            ],
            ..Scripted::default()
        };
        let mut log = AppendLog::open(&path, &HEADER, faults, |_| true).unwrap();
        let mut accepted = Vec::new();
        for id in 1..=6u64 {
            if log.append(&record(id)).is_ok() {
                accepted.push(id);
            }
        }
        assert_eq!(accepted, vec![2, 4, 6], "odd appends were refused");
        assert_eq!(ids(&path), accepted, "exactly the successes replay");
        // The short write left torn bytes mid-file; the repair must
        // have rolled them back, so the file is pure valid lines.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'), "no torn tail survives");
        assert_eq!(text.lines().count(), 1 + accepted.len());
    }

    #[test]
    fn sync_faults_roll_back_before_the_next_append() {
        let path = scratch("sync-fault");
        let faults = Scripted {
            sync_faults: vec![1],
            ..Scripted::default()
        };
        let mut log = AppendLog::open(&path, &HEADER, faults, |_| true).unwrap();
        assert!(
            log.append(&record(1)).is_err(),
            "a failed fsync means not journaled"
        );
        assert!(log.is_dirty(), "post-fsync-failure bytes are untrusted");
        log.append(&record(2)).unwrap();
        assert!(!log.is_dirty());
        assert_eq!(ids(&path), vec![2], "the unsynced record is gone");
    }
}
