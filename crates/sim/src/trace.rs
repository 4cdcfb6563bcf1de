//! Instruction trace records, the [`TraceSource`] streaming abstraction,
//! and a compact binary codec.
//!
//! The paper drives ChampSim with Pin-collected instruction traces; this
//! module defines the equivalent in-memory record, the streaming
//! [`TraceSource`] trait every trace producer implements (in-memory
//! vectors, on-demand workload generators, on-disk trace files), and a
//! binary format of fixed 17-byte records so traces can be recorded and
//! replayed without ever materializing them in memory:
//!
//! * [`VecSource`] — wraps an in-memory `Vec<TraceRecord>`,
//! * [`TraceWriter`] — the encoder, writing the binary format record by
//!   record,
//! * [`FileTraceSource`] — the decoder, checking a trace file by its size
//!   and streaming its records back in O(1) memory,
//! * [`trace_file_info`] — the same check plus one streaming pass
//!   computing mix statistics for `pythia-cli trace info`,
//! * [`ReadAhead`] — any source, produced on another CPU in whole batches.

use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

mod read_ahead;
pub use read_ahead::ReadAhead;

/// One memory micro-operation of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemOp {
    /// Byte address touched by the operation.
    pub addr: u64,
    /// `true` for a store, `false` for a load.
    pub is_write: bool,
}

/// Branch outcome attached to a branch instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Branch {
    /// Whether the branch was taken.
    pub taken: bool,
    /// Whether the (perceptron-like) predictor mispredicted it. A
    /// misprediction inserts the 20-cycle penalty of Table 5.
    pub mispredicted: bool,
}

/// One dynamic instruction in a workload trace.
///
/// This is deliberately minimal: a program counter, at most one memory
/// operation, an optional branch outcome, and a dependence hint used by
/// pointer-chasing workloads to serialize loads (trace-driven simulators
/// otherwise overestimate memory-level parallelism).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// Program counter of the instruction.
    pub pc: u64,
    /// Memory operation performed by the instruction, if any.
    pub mem: Option<MemOp>,
    /// Branch outcome, if the instruction is a branch.
    pub branch: Option<Branch>,
    /// If `true`, this load depends on the previous load's value and cannot
    /// issue before it completes (models dependent pointer chasing).
    pub depends_on_prev_load: bool,
}

impl TraceRecord {
    /// Creates a plain non-memory, non-branch instruction.
    pub fn nop(pc: u64) -> Self {
        Self {
            pc,
            mem: None,
            branch: None,
            depends_on_prev_load: false,
        }
    }

    /// Creates a load instruction reading `addr`.
    pub fn load(pc: u64, addr: u64) -> Self {
        Self {
            pc,
            mem: Some(MemOp {
                addr,
                is_write: false,
            }),
            branch: None,
            depends_on_prev_load: false,
        }
    }

    /// Creates a load that depends on the previous load (pointer chase).
    pub fn dependent_load(pc: u64, addr: u64) -> Self {
        Self {
            depends_on_prev_load: true,
            ..Self::load(pc, addr)
        }
    }

    /// Creates a store instruction writing `addr`.
    pub fn store(pc: u64, addr: u64) -> Self {
        Self {
            pc,
            mem: Some(MemOp {
                addr,
                is_write: true,
            }),
            branch: None,
            depends_on_prev_load: false,
        }
    }

    /// Creates a branch instruction.
    pub fn branch(pc: u64, taken: bool, mispredicted: bool) -> Self {
        Self {
            pc,
            mem: None,
            branch: Some(Branch {
                taken,
                mispredicted,
            }),
            depends_on_prev_load: false,
        }
    }

    /// Returns `true` if this record is a load.
    pub fn is_load(&self) -> bool {
        matches!(
            self.mem,
            Some(MemOp {
                is_write: false,
                ..
            })
        )
    }

    /// Returns `true` if this record is a store.
    pub fn is_store(&self) -> bool {
        matches!(self.mem, Some(MemOp { is_write: true, .. }))
    }
}

/// A resettable, deterministic stream of [`TraceRecord`]s.
///
/// This is the contract the simulator drives cores from: records are
/// pulled on demand, and when a finite stream ends the caller calls
/// [`reset`](TraceSource::reset) to replay it from the beginning (the
/// paper's methodology replays traces until every core retires its
/// instruction budget). Determinism is part of the contract — after a
/// `reset`, a source must yield exactly the same record sequence again, so
/// streaming and materialized execution are byte-identical.
///
/// Implementations: [`VecSource`] (in-memory), [`FileTraceSource`]
/// (on-disk replay), `pythia_workloads::TraceStream` (on-demand
/// generation), and [`ReadAhead`] (any of them, on another thread).
pub trait TraceSource: Send {
    /// The next record, or `None` when the stream's current pass ends.
    fn next_record(&mut self) -> Option<TraceRecord>;

    /// Restarts the stream; the following
    /// [`next_record`](TraceSource::next_record) calls replay the
    /// identical sequence.
    fn reset(&mut self);

    /// Records per pass, when known up front (`None` for unbounded or
    /// unknown-length streams).
    fn len_hint(&self) -> Option<u64>;

    /// Appends up to `max` records to `out`, returning how many were
    /// produced — fewer than `max` (possibly zero) only when the current
    /// pass ends. Semantically identical to `max` calls of
    /// [`next_record`](TraceSource::next_record); sources with random
    /// access (in-memory vectors, the buffered file reader) override it
    /// so the simulator's per-core record buffer amortizes the virtual
    /// dispatch down to one call per batch.
    fn next_batch(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.next_record() {
                Some(r) => {
                    out.push(r);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Replaces `buf`'s records with the next ones of the pass, returning
    /// how many — zero only when the pass has ended. The default is
    /// `clear` plus [`next_batch`](TraceSource::next_batch) of up to `max`;
    /// a source that already holds whole batches ([`ReadAhead`]) hands one
    /// over by swapping buffers instead, whatever its length.
    fn refill(&mut self, buf: &mut Vec<TraceRecord>, max: usize) -> usize {
        buf.clear();
        self.next_batch(buf, max)
    }
}

/// A [`TraceSource`] over an in-memory record vector.
#[derive(Debug, Clone)]
pub struct VecSource {
    records: Vec<TraceRecord>,
    pos: usize,
}

impl VecSource {
    /// Wraps a record vector.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty — an empty source would replay nothing
    /// forever.
    pub fn new(records: Vec<TraceRecord>) -> Self {
        assert!(!records.is_empty(), "traces must be non-empty");
        Self { records, pos: 0 }
    }

    /// [`VecSource::new`] boxed as a trait object — the common call-site
    /// shape (`System::new(cfg, vec![VecSource::boxed(trace)])`).
    pub fn boxed(records: Vec<TraceRecord>) -> Box<dyn TraceSource> {
        Box::new(Self::new(records))
    }
}

impl TraceSource for VecSource {
    fn next_record(&mut self) -> Option<TraceRecord> {
        let r = self.records.get(self.pos).copied();
        if r.is_some() {
            self.pos += 1;
        }
        r
    }

    fn reset(&mut self) {
        self.pos = 0;
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.records.len() as u64)
    }

    fn next_batch(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        let end = self.records.len().min(self.pos + max);
        out.extend_from_slice(&self.records[self.pos..end]);
        let n = end - self.pos;
        self.pos = end;
        n
    }
}

/// Magic bytes at the head of the binary trace format.
const TRACE_MAGIC: u32 = 0x5059_5452; // "PYTR"
/// Version of the binary trace format.
const TRACE_VERSION: u16 = 2;
/// Header size in bytes: magic (4) + version (2) + record count (8).
const TRACE_HEADER_LEN: u64 = 14;
/// Byte offset of the record-count field within the header.
const TRACE_COUNT_OFFSET: u64 = 6;
/// Size of every record: flags (1) + pc (8) + addr (8, zero when the
/// instruction touches no memory).
const RECORD_LEN: usize = 17;

// Flag bits used by the codec.
const FLAG_HAS_MEM: u8 = 1 << 0;
const FLAG_IS_WRITE: u8 = 1 << 1;
const FLAG_HAS_BRANCH: u8 = 1 << 2;
const FLAG_TAKEN: u8 = 1 << 3;
const FLAG_MISPREDICTED: u8 = 1 << 4;
const FLAG_DEPENDENT: u8 = 1 << 5;

/// One record's binary encoding.
fn encode(r: &TraceRecord) -> [u8; RECORD_LEN] {
    let mut flags = 0u8;
    if let Some(m) = r.mem {
        flags |= FLAG_HAS_MEM;
        if m.is_write {
            flags |= FLAG_IS_WRITE;
        }
    }
    if let Some(b) = r.branch {
        flags |= FLAG_HAS_BRANCH;
        if b.taken {
            flags |= FLAG_TAKEN;
        }
        if b.mispredicted {
            flags |= FLAG_MISPREDICTED;
        }
    }
    if r.depends_on_prev_load {
        flags |= FLAG_DEPENDENT;
    }
    let mut b = [0u8; RECORD_LEN];
    b[0] = flags;
    b[1..9].copy_from_slice(&r.pc.to_be_bytes());
    if let Some(m) = r.mem {
        b[9..17].copy_from_slice(&m.addr.to_be_bytes());
    }
    b
}

/// The inverse of [`encode`]. Every 17 bytes decode: unknown flag bits
/// and the address bytes of a record without a memory operation are
/// ignored.
#[inline]
fn decode(b: &[u8; RECORD_LEN]) -> TraceRecord {
    let flags = b[0];
    let field = |at: usize| u64::from_be_bytes(b[at..at + 8].try_into().expect("8 bytes"));
    TraceRecord {
        pc: field(1),
        mem: (flags & FLAG_HAS_MEM != 0).then(|| MemOp {
            addr: field(9),
            is_write: flags & FLAG_IS_WRITE != 0,
        }),
        branch: (flags & FLAG_HAS_BRANCH != 0).then_some(Branch {
            taken: flags & FLAG_TAKEN != 0,
            mispredicted: flags & FLAG_MISPREDICTED != 0,
        }),
        depends_on_prev_load: flags & FLAG_DEPENDENT != 0,
    }
}

/// Errors produced by the trace file paths ([`TraceWriter`],
/// [`FileTraceSource`], [`trace_file_info`]).
#[derive(Debug)]
pub enum TraceFileError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The file did not start with the expected magic bytes.
    BadMagic,
    /// The format version is not supported by this build.
    UnsupportedVersion(u16),
    /// The file ended mid-record (or mid-header).
    Truncated,
    /// The header promised `header` records but the file holds `actual`.
    CountMismatch {
        /// Record count claimed by the header.
        header: u64,
        /// Whole records present before end of file.
        actual: u64,
    },
    /// A valid, finished trace of zero records: nothing to replay.
    Empty,
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "trace file I/O error: {e}"),
            Self::BadMagic => write!(f, "buffer is not a pythia trace (bad magic)"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported trace format version {v}"),
            Self::Truncated => write!(f, "trace buffer ended mid-record"),
            Self::CountMismatch { header, actual } => write!(
                f,
                "trace header promises {header} record(s) but the file holds {actual}"
            ),
            Self::Empty => write!(f, "trace holds no records"),
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceFileError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// The encoder of the binary trace format, writing record by record
/// without ever holding the trace in memory.
///
/// The header's record count is back-patched on
/// [`finish`](TraceWriter::finish), so the sink must support seeking (a
/// [`std::fs::File`] does). Dropping a writer without calling `finish`
/// leaves a file whose header claims zero records — [`FileTraceSource`]
/// and [`trace_file_info`] reject it with
/// [`TraceFileError::CountMismatch`] once it holds a record.
pub struct TraceWriter<W: Write + Seek> {
    out: BufWriter<W>,
    count: u64,
}

impl TraceWriter<std::fs::File> {
    /// Creates (or truncates) a trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the file or writing the header.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, TraceFileError> {
        Self::new(std::fs::File::create(path)?)
    }
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Wraps a sink and writes the trace header (with a zero record count,
    /// back-patched by [`finish`](TraceWriter::finish)).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the header.
    pub fn new(inner: W) -> Result<Self, TraceFileError> {
        let mut out = BufWriter::new(inner);
        out.write_all(&TRACE_MAGIC.to_be_bytes())?;
        out.write_all(&TRACE_VERSION.to_be_bytes())?;
        out.write_all(&0u64.to_be_bytes())?;
        Ok(Self { out, count: 0 })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the sink.
    pub fn write_record(&mut self, r: &TraceRecord) -> Result<(), TraceFileError> {
        self.out.write_all(&encode(r))?;
        self.count += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Back-patches the header's record count, flushes, and returns the
    /// sink along with the final record count.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from seeking or flushing.
    pub fn finish(mut self) -> Result<(W, u64), TraceFileError> {
        self.out.flush()?;
        let mut inner = self
            .out
            .into_inner()
            .map_err(|e| TraceFileError::Io(e.into_error()))?;
        inner.seek(SeekFrom::Start(TRACE_COUNT_OFFSET))?;
        inner.write_all(&self.count.to_be_bytes())?;
        inner.flush()?;
        Ok((inner, self.count))
    }
}

/// Records per read of [`RecordReader`]: 64 KiB of whole records.
const READ_RECORDS: usize = 64 * 1024 / RECORD_LEN;

/// The decoder of a trace file [`RecordReader::open`] checked: reads whole
/// records a buffer at a time and decodes them straight out of it. This
/// is the hot loop of `pythia-cli trace replay`.
struct RecordReader {
    file: std::fs::File,
    path: PathBuf,
    total: u64,
    /// Records of the pass not yet read from the file.
    unread: u64,
    /// Buffered records: `buf[pos..len]`, a whole number of them.
    buf: Box<[u8]>,
    pos: usize,
    len: usize,
}

impl RecordReader {
    /// Opens a trace file and checks all of it by its size: the header's
    /// magic and version, then a body of exactly the header's count of
    /// records. With fixed-size records that is the whole check — every
    /// 17 bytes decode. The reader is positioned at the first record.
    fn open(path: &Path) -> Result<Self, TraceFileError> {
        let mut file = std::fs::File::open(path)?;
        let file_bytes = file.metadata()?.len();
        let mut header = [0u8; TRACE_HEADER_LEN as usize];
        file.read_exact(&mut header).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => TraceFileError::Truncated,
            _ => TraceFileError::Io(e),
        })?;
        if u32::from_be_bytes(header[0..4].try_into().expect("4-byte magic")) != TRACE_MAGIC {
            return Err(TraceFileError::BadMagic);
        }
        let version = u16::from_be_bytes(header[4..6].try_into().expect("2-byte version"));
        if version != TRACE_VERSION {
            return Err(TraceFileError::UnsupportedVersion(version));
        }
        let total = u64::from_be_bytes(header[6..14].try_into().expect("8-byte count"));
        let body = file_bytes.saturating_sub(TRACE_HEADER_LEN);
        if body % RECORD_LEN as u64 != 0 {
            return Err(TraceFileError::Truncated);
        }
        let actual = body / RECORD_LEN as u64;
        if actual != total {
            return Err(TraceFileError::CountMismatch {
                header: total,
                actual,
            });
        }
        Ok(Self {
            file,
            path: path.to_path_buf(),
            total,
            unread: total,
            buf: vec![0; READ_RECORDS * RECORD_LEN].into_boxed_slice(),
            pos: 0,
            len: 0,
        })
    }

    /// Whether a record is buffered, reading the pass's next buffer of
    /// records if none is; `false` once the pass is over. `open` checked
    /// the file's size, so a failed read means the file was changed while
    /// we replay it — not a recoverable state.
    #[inline]
    fn buffered(&mut self) -> bool {
        if self.pos == self.len && self.unread > 0 {
            let n = self.unread.min(READ_RECORDS as u64) as usize;
            let bytes = &mut self.buf[..n * RECORD_LEN];
            if let Err(e) = self.file.read_exact(bytes) {
                panic!(
                    "trace file {} changed during replay: {e}",
                    self.path.display()
                );
            }
            (self.pos, self.len) = (0, bytes.len());
            self.unread -= n as u64;
        }
        self.pos < self.len
    }
}

impl TraceSource for RecordReader {
    fn next_record(&mut self) -> Option<TraceRecord> {
        self.buffered().then(|| {
            let (record, _) = self.buf[self.pos..self.len].as_chunks::<RECORD_LEN>();
            self.pos += RECORD_LEN;
            decode(&record[0])
        })
    }

    fn reset(&mut self) {
        self.file
            .seek(SeekFrom::Start(TRACE_HEADER_LEN))
            .unwrap_or_else(|e| {
                panic!(
                    "trace file {}: seek failed on reset: {e}",
                    self.path.display()
                )
            });
        (self.unread, self.pos, self.len) = (self.total, 0, 0);
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.total)
    }

    fn next_batch(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        let mut n = 0;
        while n < max && self.buffered() {
            let (records, _) = self.buf[self.pos..self.len].as_chunks::<RECORD_LEN>();
            let records = &records[..records.len().min(max - n)];
            out.extend(records.iter().map(decode));
            self.pos += records.len() * RECORD_LEN;
            n += records.len();
        }
        n
    }
}

/// A [`TraceSource`] streaming records from a binary trace file in O(1)
/// memory: the decoder of the format, and the replay path for
/// `pythia-cli trace replay`.
///
/// [`open`](FileTraceSource::open) checks the entire file up front, by
/// its size, so the replay afterwards cannot meet a decode error; a
/// failed read mid-stream would mean the file changed underneath us and
/// aborts with a panic naming the file. The decoder runs behind
/// [`ReadAhead::wrap`], so a long replay decodes on an idle CPU.
pub struct FileTraceSource {
    path: PathBuf,
    source: Box<dyn TraceSource>,
}

impl std::fmt::Debug for FileTraceSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileTraceSource")
            .field("path", &self.path)
            .field("total", &self.source.len_hint())
            .finish_non_exhaustive()
    }
}

impl FileTraceSource {
    /// Opens and fully validates a trace file (header, and a size of
    /// exactly the header's count of records), leaving the stream
    /// positioned at the first record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceFileError`] on I/O failures, a bad header, a torn
    /// last record, or a header/content record-count mismatch (an
    /// unfinished [`TraceWriter`] among them). A finished file of zero
    /// records is [`TraceFileError::Empty`]: a [`TraceSource`] must be
    /// non-empty.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceFileError> {
        let path = path.as_ref().to_path_buf();
        let reader = RecordReader::open(&path)?;
        if reader.total == 0 {
            return Err(TraceFileError::Empty);
        }
        let source = ReadAhead::wrap(Box::new(reader));
        Ok(Self { path, source })
    }
}

impl TraceSource for FileTraceSource {
    fn next_record(&mut self) -> Option<TraceRecord> {
        self.source.next_record()
    }

    fn reset(&mut self) {
        self.source.reset();
    }

    fn len_hint(&self) -> Option<u64> {
        self.source.len_hint()
    }

    fn next_batch(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        self.source.next_batch(out, max)
    }

    fn refill(&mut self, buf: &mut Vec<TraceRecord>, max: usize) -> usize {
        self.source.refill(buf, max)
    }
}

/// Summary of a trace file computed by [`trace_file_info`] in one
/// streaming pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceInfo {
    /// Binary format version.
    pub version: u16,
    /// Record count (validated against the header).
    pub records: u64,
    /// File size in bytes.
    pub file_bytes: u64,
    /// Load instructions.
    pub loads: u64,
    /// Store instructions.
    pub stores: u64,
    /// Branch instructions.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Loads flagged as dependent on the previous load.
    pub dependent_loads: u64,
    /// Smallest and largest byte address touched, if any memory op exists.
    pub addr_range: Option<(u64, u64)>,
}

/// Checks a trace file as [`FileTraceSource::open`] does, then streams
/// through it and returns its [`TraceInfo`] without materializing any
/// records. A finished file of zero records is valid here.
///
/// # Errors
///
/// Returns [`TraceFileError`] on I/O failures, a bad header, a torn last
/// record, or a header/content record-count mismatch.
pub fn trace_file_info(path: impl AsRef<Path>) -> Result<TraceInfo, TraceFileError> {
    let mut reader = RecordReader::open(path.as_ref())?;
    let mut info = TraceInfo {
        version: TRACE_VERSION,
        records: reader.total,
        // What `open` checked the file's size against.
        file_bytes: TRACE_HEADER_LEN + RECORD_LEN as u64 * reader.total,
        loads: 0,
        stores: 0,
        branches: 0,
        mispredicts: 0,
        dependent_loads: 0,
        addr_range: None,
    };
    while let Some(r) = reader.next_record() {
        if let Some(m) = r.mem {
            if m.is_write {
                info.stores += 1;
            } else {
                info.loads += 1;
            }
            info.addr_range = Some(match info.addr_range {
                None => (m.addr, m.addr),
                Some((lo, hi)) => (lo.min(m.addr), hi.max(m.addr)),
            });
        }
        if let Some(b) = r.branch {
            info.branches += 1;
            if b.mispredicted {
                info.mispredicts += 1;
            }
        }
        if r.depends_on_prev_load {
            info.dependent_loads += 1;
        }
    }
    Ok(info)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::nop(0x400000),
            TraceRecord::load(0x400004, 0xdead_0040),
            TraceRecord::store(0x400008, 0xbeef_0080),
            TraceRecord::branch(0x40000c, true, false),
            TraceRecord::branch(0x400010, false, true),
            TraceRecord::dependent_load(0x400014, 0xaaaa_0000),
        ]
    }

    /// `sample()` on the wire, written out by hand: the 14-byte header
    /// (magic "PYTR", version 2, record count 6), then one 17-byte record
    /// per line — the flag byte, the big-endian pc, and the big-endian
    /// addr, zero when the record touches no memory.
    #[rustfmt::skip]
    const SAMPLE_BYTES: [u8; 116] = [
        b'P', b'Y', b'T', b'R', 0, 2, 0, 0, 0, 0, 0, 0, 0, 6,
        0x00, 0, 0, 0, 0, 0, 0x40, 0, 0x00, 0, 0, 0, 0, 0, 0, 0, 0,
        0x01, 0, 0, 0, 0, 0, 0x40, 0, 0x04, 0, 0, 0, 0, 0xde, 0xad, 0, 0x40,
        0x03, 0, 0, 0, 0, 0, 0x40, 0, 0x08, 0, 0, 0, 0, 0xbe, 0xef, 0, 0x80,
        0x0c, 0, 0, 0, 0, 0, 0x40, 0, 0x0c, 0, 0, 0, 0, 0, 0, 0, 0,
        0x14, 0, 0, 0, 0, 0, 0x40, 0, 0x10, 0, 0, 0, 0, 0, 0, 0, 0,
        0x21, 0, 0, 0, 0, 0, 0x40, 0, 0x14, 0, 0, 0, 0, 0xaa, 0xaa, 0, 0,
    ];

    /// `records` as a finished [`TraceWriter`] lays them out.
    fn encoded(records: &[TraceRecord]) -> Vec<u8> {
        let mut w = TraceWriter::new(std::io::Cursor::new(Vec::new())).expect("header");
        for r in records {
            w.write_record(r).expect("write");
        }
        let (sink, n) = w.finish().expect("finish");
        assert_eq!(n, records.len() as u64);
        sink.into_inner()
    }

    /// What [`FileTraceSource::open`] and [`trace_file_info`] each say
    /// about a file holding `bytes`.
    fn verdicts(name: &str, bytes: &[u8]) -> (String, String) {
        let path = temp_path(name);
        std::fs::write(&path, bytes).expect("write");
        let said = (
            outcome(FileTraceSource::open(&path)),
            outcome(trace_file_info(&path)),
        );
        std::fs::remove_file(&path).ok();
        said
    }

    /// The same verdict from both readers.
    fn both(verdict: &str) -> (String, String) {
        (verdict.into(), verdict.into())
    }

    #[test]
    fn writer_output_is_the_pinned_wire_format() {
        assert_eq!(encoded(&sample()), SAMPLE_BYTES);
    }

    #[test]
    fn roundtrip_codec() {
        let records = mixed_records(1_000);
        let path = temp_path("roundtrip.pytr");
        let mut w = TraceWriter::create(&path).expect("create");
        for r in &records {
            w.write_record(r).expect("write");
        }
        w.finish().expect("finish");
        let mut src = FileTraceSource::open(&path).expect("open");
        let decoded: Vec<TraceRecord> = std::iter::from_fn(|| src.next_record()).collect();
        assert_eq!(decoded, records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(verdicts("garbage.pytr", &[0u8; 32]), both("BadMagic"));
    }

    #[test]
    fn decode_rejects_truncation() {
        let cut = &SAMPLE_BYTES[..SAMPLE_BYTES.len() - 4];
        assert_eq!(verdicts("cut.pytr", cut), both("Truncated"));
        let header_only = &SAMPLE_BYTES[..TRACE_HEADER_LEN as usize - 1];
        assert_eq!(verdicts("cut.pytr", header_only), both("Truncated"));
    }

    #[test]
    fn decode_rejects_wrong_version() {
        // Version 1, the variable-length framing, is no longer read.
        for version in [1u16, 99] {
            let mut bytes = SAMPLE_BYTES;
            bytes[4..6].copy_from_slice(&version.to_be_bytes());
            assert_eq!(
                verdicts("version.pytr", &bytes),
                both(&format!("UnsupportedVersion({version})"))
            );
        }
    }

    #[test]
    fn constructors_classify() {
        assert!(TraceRecord::load(0, 0).is_load());
        assert!(!TraceRecord::load(0, 0).is_store());
        assert!(TraceRecord::store(0, 0).is_store());
        assert!(TraceRecord::dependent_load(0, 0).depends_on_prev_load);
        assert!(TraceRecord::nop(0).mem.is_none());
    }

    #[test]
    fn empty_trace_roundtrip() {
        let bytes = encoded(&[]);
        assert_eq!(bytes, [&SAMPLE_BYTES[..6], &[0; 8]].concat(), "header only");
        // `trace info` reports zero records; a replay has nothing to replay.
        assert_eq!(
            verdicts("empty.pytr", &bytes),
            ("Empty".into(), "ok".into())
        );
    }

    #[test]
    fn vec_source_streams_and_resets() {
        let records = sample();
        let mut src = VecSource::new(records.clone());
        assert_eq!(src.len_hint(), Some(records.len() as u64));
        let first: Vec<TraceRecord> = std::iter::from_fn(|| src.next_record()).collect();
        assert_eq!(first, records);
        assert_eq!(src.next_record(), None, "pass ended");
        src.reset();
        let second: Vec<TraceRecord> = std::iter::from_fn(|| src.next_record()).collect();
        assert_eq!(second, records, "reset replays identically");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn vec_source_rejects_empty() {
        let _ = VecSource::new(Vec::new());
    }

    #[test]
    fn next_batch_matches_record_by_record_streaming() {
        let records = sample();
        // VecSource override.
        let mut src = VecSource::new(records.clone());
        let mut out = Vec::new();
        assert_eq!(src.next_batch(&mut out, 4), 4);
        assert_eq!(src.next_batch(&mut out, 4), 2, "pass ends short");
        assert_eq!(src.next_batch(&mut out, 4), 0);
        assert_eq!(out, records);
        src.reset();
        assert_eq!(src.next_batch(&mut out, 100), records.len());

        // FileTraceSource override.
        let path = temp_path("batch.pytr");
        std::fs::write(&path, SAMPLE_BYTES).expect("write trace");
        let mut src = FileTraceSource::open(&path).expect("open");
        let mut out = Vec::new();
        assert_eq!(src.next_batch(&mut out, 4), 4);
        assert_eq!(src.next_batch(&mut out, 4), 2);
        assert_eq!(src.next_batch(&mut out, 4), 0);
        assert_eq!(out, records);
        std::fs::remove_file(&path).ok();

        // Trait-default fallback (a source without an override).
        struct OneByOne(VecSource);
        impl TraceSource for OneByOne {
            fn next_record(&mut self) -> Option<TraceRecord> {
                self.0.next_record()
            }
            fn reset(&mut self) {
                self.0.reset();
            }
            fn len_hint(&self) -> Option<u64> {
                self.0.len_hint()
            }
        }
        let mut src = OneByOne(VecSource::new(records.clone()));
        let mut out = Vec::new();
        assert_eq!(src.next_batch(&mut out, 100), records.len());
        assert_eq!(out, records);
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pythia_trace_tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{name}_{}", std::process::id()))
    }

    #[test]
    fn file_source_replays_and_resets() {
        let records = sample();
        let path = temp_path("file_source.pytr");
        std::fs::write(&path, SAMPLE_BYTES).expect("write trace");
        let mut src = FileTraceSource::open(&path).expect("open");
        assert_eq!(src.len_hint(), Some(records.len() as u64));
        let first: Vec<TraceRecord> = std::iter::from_fn(|| src.next_record()).collect();
        assert_eq!(first, records);
        src.reset();
        let second: Vec<TraceRecord> = std::iter::from_fn(|| src.next_record()).collect();
        assert_eq!(second, records, "reset replays identically");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_source_rejects_bad_and_torn_files() {
        // Bad headers and records torn mid-way: the `decode_rejects_*` tests.
        // Chop a whole record off the tail: count mismatch.
        let path = temp_path("torn.pytr");
        std::fs::write(&path, &SAMPLE_BYTES[..SAMPLE_BYTES.len() - 17]).expect("write");
        assert!(matches!(
            FileTraceSource::open(&path),
            Err(TraceFileError::CountMismatch {
                header: 6,
                actual: 5
            })
        ));

        // An unfinished writer leaves a zero-count header in front of the
        // records it wrote: the count the error reports is the file's.
        let mut w = TraceWriter::create(&path).expect("create");
        w.write_record(&TraceRecord::nop(1)).expect("write");
        drop(w); // no finish()
        assert!(matches!(
            FileTraceSource::open(&path),
            Err(TraceFileError::CountMismatch {
                header: 0,
                actual: 1
            })
        ));

        // A finished trace of no records is whole, and empty.
        TraceWriter::create(&path)
            .and_then(TraceWriter::finish)
            .expect("finish");
        assert!(matches!(
            FileTraceSource::open(&path),
            Err(TraceFileError::Empty)
        ));
        std::fs::remove_file(&path).ok();
    }

    /// `n` records cycling through every wire shape, with varying bytes.
    fn mixed_records(n: u64) -> Vec<TraceRecord> {
        let shapes = sample();
        (0..n)
            .map(|i| {
                let mut r = shapes[(i % shapes.len() as u64) as usize];
                r.pc = r.pc.wrapping_add(i.wrapping_mul(0x0101_0101_0101_0101));
                if let Some(m) = r.mem.as_mut() {
                    m.addr ^= i << 20;
                }
                r
            })
            .collect()
    }

    /// Validation by full decode — the header, then every record read
    /// and decoded one at a time until the file ends, counted — the
    /// reference the size check must agree with.
    fn open_by_full_decode(path: &Path) -> Result<u64, TraceFileError> {
        let mut file = std::fs::File::open(path)?;
        // The next `n` bytes of the file, fewer only at its end.
        let mut next = |n: u64| -> Result<Vec<u8>, TraceFileError> {
            let mut bytes = Vec::new();
            (&mut file).take(n).read_to_end(&mut bytes)?;
            Ok(bytes)
        };
        let header = next(TRACE_HEADER_LEN)?;
        if header.len() < TRACE_HEADER_LEN as usize {
            return Err(TraceFileError::Truncated);
        }
        if header[0..4] != TRACE_MAGIC.to_be_bytes() {
            return Err(TraceFileError::BadMagic);
        }
        if header[4..6] != TRACE_VERSION.to_be_bytes() {
            return Err(TraceFileError::UnsupportedVersion(u16::from_be_bytes([
                header[4], header[5],
            ])));
        }
        let total = u64::from_be_bytes(header[6..14].try_into().expect("8-byte count"));
        let mut actual = 0u64;
        loop {
            let record = next(RECORD_LEN as u64)?;
            match <&[u8; RECORD_LEN]>::try_from(&record[..]) {
                Ok(record) => {
                    decode(record);
                    actual += 1;
                }
                Err(_) if record.is_empty() => break,
                Err(_) => return Err(TraceFileError::Truncated),
            }
        }
        if actual != total {
            return Err(TraceFileError::CountMismatch {
                header: total,
                actual,
            });
        }
        if total == 0 {
            return Err(TraceFileError::Empty);
        }
        Ok(total)
    }

    /// Variant and numbers of an open outcome, comparable across the two
    /// validations (`TraceFileError` holds an `io::Error`, so no `Eq`).
    fn outcome<T>(r: Result<T, TraceFileError>) -> String {
        match r {
            Ok(_) => "ok".into(),
            Err(e) => format!("{e:?}"),
        }
    }

    fn assert_same_verdict(path: &Path, bytes: &[u8], what: &str) -> String {
        std::fs::write(path, bytes).expect("write");
        let framing = outcome(FileTraceSource::open(path));
        assert_eq!(
            framing,
            outcome(open_by_full_decode(path)),
            "{what}: size check and full decode disagree"
        );
        framing
    }

    #[test]
    fn framing_validation_agrees_with_full_decode_on_damaged_files() {
        let records = mixed_records(200);
        let encoded = encoded(&records);
        let path = temp_path("faults.pytr");

        // Every truncation offset, header included.
        for cut in 0..encoded.len() {
            let verdict = assert_same_verdict(&path, &encoded[..cut], &format!("cut at {cut}"));
            assert_ne!(verdict, "ok", "a file cut at {cut} must be rejected");
        }
        assert_eq!(assert_same_verdict(&path, &encoded, "intact"), "ok");

        // Appended garbage: a torn record, whole extra records, both.
        let mut seen = std::collections::BTreeSet::new();
        for tail in [
            vec![0u8],
            vec![FLAG_HAS_MEM; 9],
            vec![0u8; 16],
            vec![0xffu8; 17],
            vec![0xa5u8; 34],
            vec![0x5au8; 40],
            (0..=255u8).collect(),
        ] {
            let mut damaged = encoded.clone();
            damaged.extend_from_slice(&tail);
            let verdict = assert_same_verdict(&path, &damaged, "appended garbage");
            assert_ne!(verdict, "ok");
            seen.insert(verdict);
        }
        assert!(seen.contains("Truncated"), "{seen:?}");
        assert!(
            seen.contains("CountMismatch { header: 200, actual: 201 }"),
            "{seen:?}"
        );
        assert!(
            seen.contains("CountMismatch { header: 200, actual: 202 }"),
            "{seen:?}"
        );

        // A header count off by one in either direction.
        for claimed in [199u64, 201] {
            let mut damaged = encoded.clone();
            damaged[6..14].copy_from_slice(&claimed.to_be_bytes());
            assert_eq!(
                assert_same_verdict(&path, &damaged, "header count off by one"),
                format!("CountMismatch {{ header: {claimed}, actual: 200 }}")
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// A file larger than the reader's refill buffer: the batch decode
    /// straddles refills, cuts around the refill boundary get the full
    /// decode's verdict, and batches of two sizes and the record-by-record
    /// path replay one stream over two passes.
    #[test]
    fn open_replays_identical_streams_across_refills() {
        let records = mixed_records(8_000);
        let encoded = encoded(&records);
        let buffer = READ_RECORDS * RECORD_LEN;
        assert!(encoded.len() > buffer + 1_000);
        let path = temp_path("refill.pytr");
        for cut in buffer - 20..buffer + 20 {
            assert_same_verdict(&path, &encoded[..cut], &format!("cut at {cut}"));
        }
        assert_eq!(assert_same_verdict(&path, &encoded, "intact"), "ok");

        let mut wide = FileTraceSource::open(&path).expect("open");
        let mut narrow = FileTraceSource::open(&path).expect("open");
        let mut one_by_one = FileTraceSource::open(&path).expect("open");
        for pass in 0..2 {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            while wide.next_batch(&mut a, 64) > 0 {}
            while narrow.next_batch(&mut b, 7) > 0 {}
            let c: Vec<TraceRecord> = std::iter::from_fn(|| one_by_one.next_record()).collect();
            assert_eq!(a, records, "batches of 64, pass {pass}");
            assert_eq!(b, records, "batches of 7, pass {pass}");
            assert_eq!(c, records, "next_record, pass {pass}");
            wide.reset();
            narrow.reset();
            one_by_one.reset();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn info_summarizes_the_mix() {
        let path = temp_path("info.pytr");
        std::fs::write(&path, SAMPLE_BYTES).expect("write trace");
        let info = trace_file_info(&path).expect("info");
        assert_eq!(info.records, 6);
        assert_eq!(info.loads, 2);
        assert_eq!(info.stores, 1);
        assert_eq!(info.branches, 2);
        assert_eq!(info.mispredicts, 1);
        assert_eq!(info.dependent_loads, 1);
        assert_eq!(info.addr_range, Some((0xaaaa_0000, 0xdead_0040)));
        assert_eq!(info.version, TRACE_VERSION);
        assert_eq!(info.file_bytes, SAMPLE_BYTES.len() as u64);
        std::fs::remove_file(&path).ok();
    }
}
