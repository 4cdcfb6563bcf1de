//! [`ReadAhead`]: a trace source produced on another CPU.
//!
//! A trace-driven simulation's input does not depend on the simulation,
//! and a single simulation keeps one CPU busy. So a long generated trace
//! is made on another one: a producer thread owns the source and fills
//! batches of [`ReadAhead::BATCH`] records into a ring of
//! [`IN_FLIGHT`] + 1 buffers that its consumer drains, and the consumer
//! sees the same [`TraceSource`], record for record.
//!
//! * **Passes.** At the end of a pass the producer resets the source
//!   itself and flags the batch that ends it, so the consumer's `reset`
//!   there costs nothing. A reset anywhere else closes the ring, takes the
//!   source back from the producer, resets it and starts a new one.
//! * **Buffers.** The consumer allocates every record buffer: the ring's
//!   at construction, and the one a caller hands over through
//!   [`TraceSource::refill`] before it enters the ring. A source holds at
//!   most `(IN_FLIGHT + 1) × BATCH` records, 96 KiB.
//! * **Threads.** A producer thread that hands its source back parks for
//!   the next source instead of exiting, so a process that opens trace
//!   after trace starts one thread per producer running at once, not one
//!   per trace. With a thread per trace, the peak RSS Linux reported
//!   (`VmHWM`) for the same 600 replays spread over 4.17–4.93 MB from run
//!   to run; with parked threads, over 4.72–4.93 MB.
//! * **Pinning.** The producer pins itself to the CPUs its consumer may
//!   use minus the one the consumer ran on at start (Linux / glibc).
//!   Unpinned, the scheduler sometimes stacked both threads on one CPU
//!   and left the other idle, which was slower than no thread at all.
//!   [`ReadAhead::wrap`] starts a producer only where one lands on an idle
//!   CPU: when the thread may use more CPUs than there are simulations
//!   (`System`s alive, this one included). A producer on a CPU another
//!   simulation keeps busy took a 2-worker sweep from 1.5 s to 2.3 s.
//! * **Failure.** A panic in the producer is raised again on the consumer
//!   when it next needs a batch, with the producer's payload; the thread
//!   lives on. `Drop` closes the ring and waits for the source.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use super::{TraceRecord, TraceSource};
use crate::system::SYSTEMS_ALIVE;

/// Batches the producer may fill ahead of its consumer.
const IN_FLIGHT: usize = 2;

/// The producer's stack: it runs the source's `next_batch` and `reset`.
const PRODUCER_STACK: usize = 64 * 1024;

/// What a producer hands back as it stops: its source, or the panic it
/// died of.
type Outcome = std::thread::Result<Box<dyn TraceSource>>;

/// One producer batch: [`ReadAhead::BATCH`] records, fewer only when the
/// pass ends in it.
struct Batch {
    records: Vec<TraceRecord>,
    /// The pass ends with this batch; the producer has reset its source.
    ends_pass: bool,
}

/// What producer and consumer share, under [`Shared::ring`].
struct Ring {
    /// Filled batches, oldest first.
    full: VecDeque<Batch>,
    /// Buffers the producer may fill.
    empty: Vec<Vec<TraceRecord>>,
    /// Set by the consumer: stop and hand the source back.
    closed: bool,
    /// Set by the producer as it stops: no batch follows.
    returned: Option<Outcome>,
    /// Who sleeps on which condvar. A notify is a system call, so only a
    /// sleeper is sent one.
    producer_waiting: bool,
    consumer_waiting: bool,
}

impl Ring {
    /// An open ring whose buffers are all `empty`.
    fn new(empty: Vec<Vec<TraceRecord>>) -> Self {
        Self {
            full: VecDeque::with_capacity(IN_FLIGHT + 1),
            empty,
            closed: false,
            returned: None,
            producer_waiting: false,
            consumer_waiting: false,
        }
    }
}

struct Shared {
    ring: Mutex<Ring>,
    /// Signalled when a buffer is given back or the ring closes.
    space: Condvar,
    /// Signalled when a batch is filled or the producer is done.
    ready: Condvar,
}

impl Shared {
    /// The ring. Nothing panics while holding it — every update is a
    /// push, a pop or a flag — so a poisoned lock still guards a
    /// consistent ring, and `Drop` can take it without panicking.
    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The producer's next buffer; `None` once the ring is closed.
    fn next_empty(&self) -> Option<Vec<TraceRecord>> {
        let mut ring = self.lock();
        loop {
            if ring.closed {
                return None;
            }
            if let Some(records) = ring.empty.pop() {
                return Some(records);
            }
            ring.producer_waiting = true;
            ring = self
                .space
                .wait(ring)
                .unwrap_or_else(PoisonError::into_inner);
            ring.producer_waiting = false;
        }
    }

    fn push_full(&self, batch: Batch) {
        let mut ring = self.lock();
        ring.full.push_back(batch);
        if ring.consumer_waiting {
            self.ready.notify_one();
        }
    }

    /// Gives `spent` to the producer and takes the next batch; `None`
    /// when the producer died before filling one.
    fn exchange(&self, mut spent: Vec<TraceRecord>) -> Option<Batch> {
        spent.clear();
        spent.reserve(ReadAhead::BATCH);
        let mut ring = self.lock();
        ring.empty.push(spent);
        if ring.producer_waiting {
            self.space.notify_one();
        }
        loop {
            if let Some(batch) = ring.full.pop_front() {
                return Some(batch);
            }
            if ring.returned.is_some() {
                return None;
            }
            ring.consumer_waiting = true;
            ring = self
                .ready
                .wait(ring)
                .unwrap_or_else(PoisonError::into_inner);
            ring.consumer_waiting = false;
        }
    }

    /// The producer's last word: wakes a consumer waiting for a batch or
    /// for the source.
    fn hand_back(&self, outcome: Outcome) {
        self.lock().returned = Some(outcome);
        self.ready.notify_one();
    }

    /// Closes the ring and waits for the producer to stop.
    fn close(&self) -> Outcome {
        let mut ring = self.lock();
        ring.closed = true;
        self.space.notify_one();
        loop {
            if let Some(outcome) = ring.returned.take() {
                return outcome;
            }
            ring = self
                .ready
                .wait(ring)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Fills `records` (empty) with the next batch of `source`; at the end of
/// a pass resets the source and returns `true`.
fn fill(source: &mut dyn TraceSource, records: &mut Vec<TraceRecord>) -> bool {
    let ends_pass = source.next_batch(records, ReadAhead::BATCH) < ReadAhead::BATCH;
    if ends_pass {
        source.reset();
    }
    ends_pass
}

/// The producer: fills buffers until the ring closes, then returns the
/// source.
fn produce(mut source: Box<dyn TraceSource>, shared: &Shared) -> Box<dyn TraceSource> {
    while let Some(mut records) = shared.next_empty() {
        let ends_pass = fill(&mut *source, &mut records);
        shared.push_full(Batch { records, ends_pass });
    }
    source
}

/// One producer's work: a source, its ring and the CPUs to run on.
struct Job {
    source: Box<dyn TraceSource>,
    shared: Arc<Shared>,
    cpus: Option<affinity::CpuSet>,
}

/// A producer thread between jobs, waiting for one to be posted to it.
#[derive(Default)]
struct Parked {
    job: Mutex<Option<Job>>,
    posted: Condvar,
}

/// The parked producer threads, the latest last. Nothing panics while
/// holding it.
static PARKED: Mutex<Vec<Arc<Parked>>> = Mutex::new(Vec::new());

impl Job {
    /// Runs the job on the thread parked last, or on a new one when none
    /// is parked.
    fn post(self) {
        let parked = PARKED.lock().unwrap_or_else(PoisonError::into_inner).pop();
        if let Some(parked) = parked {
            *parked.job.lock().unwrap_or_else(PoisonError::into_inner) = Some(self);
            parked.posted.notify_one();
            return;
        }
        std::thread::Builder::new()
            .name("trace-read-ahead".into())
            .stack_size(PRODUCER_STACK)
            .spawn(move || {
                let me = Arc::new(Parked::default());
                let mut job = self;
                loop {
                    job.run(&me);
                    job = me.next();
                }
            })
            .expect("spawn the trace read-ahead thread");
    }

    /// Produces until the ring closes, parks the thread as `me` and hands
    /// the source back: parked first, so a consumer that starts a new
    /// producer once it has the source finds this thread.
    fn run(self, me: &Arc<Parked>) {
        let Job {
            source,
            shared,
            cpus,
        } = self;
        if let Some(cpus) = cpus {
            // Best effort: a mask the kernel refuses leaves the thread
            // wherever the scheduler puts it.
            affinity::sys::set_allowed(&cpus);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| produce(source, &shared)));
        PARKED
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(me));
        shared.hand_back(outcome);
    }
}

impl Parked {
    /// Waits until a job is posted to this thread.
    fn next(&self) -> Job {
        let mut job = self.job.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(job) = job.take() {
                return job;
            }
            job = self
                .posted
                .wait(job)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A [`TraceSource`] produced on another thread: the wrapped source's
/// records, pass for pass, in batches of [`BATCH`](ReadAhead::BATCH) of
/// which the producer fills at most two ahead, pinned off the consumer's
/// CPU. The producer resets the source at each pass end, so a `reset`
/// there is free; one mid-pass restarts the producer. [`ReadAhead::wrap`]
/// is how `pythia_workloads::TraceSpec::source` opens a generated trace of
/// at least [`MIN_RECORDS`](ReadAhead::MIN_RECORDS) records.
pub struct ReadAhead {
    shared: Arc<Shared>,
    /// A producer runs for `shared`; `false` once it stopped for good.
    producing: bool,
    len: Option<u64>,
    /// Records taken from the ring not yet handed out: `current[pos..]`.
    current: Vec<TraceRecord>,
    pos: usize,
    /// The last batch taken from the ring ends the pass.
    ends_pass: bool,
}

impl std::fmt::Debug for ReadAhead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadAhead")
            .field("len", &self.len)
            .field("buffered", &(self.current.len() - self.pos))
            .finish_non_exhaustive()
    }
}

impl ReadAhead {
    /// Records per producer batch.
    pub const BATCH: usize = 1024;

    /// The shortest pass [`wrap`](ReadAhead::wrap) reads ahead. Starting
    /// the thread and producing the first batch costs 0.2–0.35 ms, which
    /// the overlap earns back after about 25 K records.
    pub const MIN_RECORDS: u64 = 1 << 16;

    /// `source` behind a producer thread when its passes are at least
    /// [`MIN_RECORDS`](ReadAhead::MIN_RECORDS) long and a CPU this thread
    /// may use is idle — more are allowed than there are simulations,
    /// counting the one `source` is for; `source` itself otherwise.
    pub fn wrap(source: Box<dyn TraceSource>) -> Box<dyn TraceSource> {
        if source.len_hint().is_some_and(|n| n >= Self::MIN_RECORDS) {
            let busy = SYSTEMS_ALIVE.load(Ordering::Relaxed) + 1;
            if let Some(cpus) = affinity::producer_cpus().filter(|cpus| cpus.count() >= busy) {
                return Box::new(Self::start(source, Some(cpus)));
            }
        }
        source
    }

    /// Starts a producer for `source` whatever its length, pinned off this
    /// thread's CPU when another is allowed and sharing it otherwise.
    pub fn new(source: Box<dyn TraceSource>) -> Self {
        Self::start(source, affinity::producer_cpus())
    }

    fn start(source: Box<dyn TraceSource>, cpus: Option<affinity::CpuSet>) -> Self {
        let len = source.len_hint();
        let buffers = (0..IN_FLIGHT)
            .map(|_| Vec::with_capacity(Self::BATCH))
            .collect();
        Self {
            shared: Self::spawn(source, cpus, buffers),
            producing: true,
            len,
            current: Vec::new(),
            pos: 0,
            ends_pass: false,
        }
    }

    /// Fills the first batch of `source` on this thread, so the consumer
    /// never waits for the producer to start, queues it in a new ring with
    /// the other `buffers`, and hands the source to a producer pinned to
    /// `cpus`, or to this thread's CPUs without them.
    fn spawn(
        mut source: Box<dyn TraceSource>,
        cpus: Option<affinity::CpuSet>,
        mut buffers: Vec<Vec<TraceRecord>>,
    ) -> Arc<Shared> {
        let mut records = buffers.pop().expect("a ring has buffers");
        let ends_pass = fill(&mut *source, &mut records);
        let mut ring = Ring::new(buffers);
        ring.full.push_back(Batch { records, ends_pass });
        let shared = Arc::new(Shared {
            ring: Mutex::new(ring),
            space: Condvar::new(),
            ready: Condvar::new(),
        });
        Job {
            source,
            shared: Arc::clone(&shared),
            // A parked thread keeps the mask of its last job.
            cpus: cpus.or_else(affinity::sys::allowed),
        }
        .post();
        shared
    }

    /// Closes the ring and waits for the producer to stop: its source, or
    /// the panic it died of.
    fn stop(&mut self) -> Outcome {
        assert!(self.producing, "the producer was stopped");
        self.producing = false;
        self.shared.close()
    }

    /// Gives `spent` back to the ring and takes its next batch, raising
    /// the producer's panic if it died.
    fn take(&mut self, spent: Vec<TraceRecord>) -> Batch {
        match self.shared.exchange(spent) {
            Some(batch) => batch,
            None => match self.stop() {
                Err(panic) => resume_unwind(panic),
                Ok(_) => unreachable!("a producer returns only once its ring is closed"),
            },
        }
    }

    /// Moves `current` (exhausted) on to the next batch of the pass;
    /// `false` when the pass is over.
    fn advance(&mut self) -> bool {
        if !self.ends_pass {
            let spent = std::mem::take(&mut self.current);
            let batch = self.take(spent);
            (self.current, self.pos, self.ends_pass) = (batch.records, 0, batch.ends_pass);
        }
        self.pos < self.current.len()
    }
}

impl TraceSource for ReadAhead {
    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.pos == self.current.len() && !self.advance() {
            return None;
        }
        self.pos += 1;
        Some(self.current[self.pos - 1])
    }

    fn reset(&mut self) {
        if self.ends_pass && self.pos == self.current.len() {
            // The producer reset its source when it flagged the batch.
            self.ends_pass = false;
            return;
        }
        let mut source = self.stop().unwrap_or_else(|panic| resume_unwind(panic));
        source.reset();
        (self.pos, self.ends_pass) = (0, false);
        self.current.clear();
        let buffers = {
            let ring = &mut *self.shared.lock();
            let full = ring.full.drain(..).map(|batch| batch.records);
            let mut buffers: Vec<_> = full.chain(ring.empty.drain(..)).collect();
            buffers.iter_mut().for_each(Vec::clear);
            buffers
        };
        self.shared = Self::spawn(source, affinity::producer_cpus(), buffers);
        self.producing = true;
    }

    fn len_hint(&self) -> Option<u64> {
        self.len
    }

    fn next_batch(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        let mut n = 0;
        while n < max && (self.pos < self.current.len() || self.advance()) {
            let k = (max - n).min(self.current.len() - self.pos);
            out.extend_from_slice(&self.current[self.pos..self.pos + k]);
            self.pos += k;
            n += k;
        }
        n
    }

    /// Hands the ring's next batch over whole: `buf` becomes the batch,
    /// and the buffer it held goes to the producer.
    fn refill(&mut self, buf: &mut Vec<TraceRecord>, max: usize) -> usize {
        if self.pos == self.current.len() && !self.ends_pass {
            let batch = self.take(std::mem::take(buf));
            (*buf, self.ends_pass) = (batch.records, batch.ends_pass);
            return buf.len();
        }
        // What is left of a batch taken for `next_batch` or
        // `next_record`, or nothing at the end of the pass.
        buf.clear();
        self.next_batch(buf, max)
    }
}

impl Drop for ReadAhead {
    fn drop(&mut self) {
        if self.producing {
            // A producer's panic has been printed by its hook; a consumer
            // that is going away asks for no batch that would raise it.
            let _ = self.stop();
        }
    }
}

/// Which CPUs a producer runs on, through glibc's `sched_getaffinity`,
/// `sched_setaffinity` and `sched_getcpu`. Elsewhere nothing is known, so
/// [`producer_cpus`](affinity::producer_cpus) is `None` and
/// [`ReadAhead::wrap`] stays inline.
mod affinity {
    /// A CPU mask laid out as glibc's `cpu_set_t`: 1024 bits.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    #[repr(C)]
    pub(crate) struct CpuSet(pub(crate) [u64; 16]);

    impl CpuSet {
        /// The mask holding `cpu` alone.
        #[cfg(test)]
        pub(crate) fn single(cpu: usize) -> Self {
            let mut set = Self([0; 16]);
            set.0[cpu / 64] |= 1 << (cpu % 64);
            set
        }

        /// How many CPUs the mask holds.
        pub(crate) fn count(&self) -> usize {
            self.0.iter().map(|word| word.count_ones() as usize).sum()
        }

        /// `self` minus `cpu`, or `None` when that leaves no CPU: the
        /// producer's CPUs for a consumer running on `cpu`.
        pub(crate) fn others(mut self, cpu: usize) -> Option<Self> {
            if let Some(word) = self.0.get_mut(cpu / 64) {
                *word &= !(1 << (cpu % 64));
            }
            self.0.iter().any(|&word| word != 0).then_some(self)
        }
    }

    /// The calling thread's allowed CPUs minus the one it runs on.
    pub(crate) fn producer_cpus() -> Option<CpuSet> {
        sys::allowed()?.others(sys::current_cpu()?)
    }

    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    pub(crate) mod sys {
        use super::CpuSet;
        use std::os::raw::c_int;

        extern "C" {
            fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
            fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
            fn sched_getcpu() -> c_int;
        }

        /// The calling thread's allowed CPUs.
        pub(crate) fn allowed() -> Option<CpuSet> {
            let mut set = CpuSet([0; 16]);
            // SAFETY: pid 0 names the calling thread, and `set` is a live,
            // writable `cpu_set_t`-sized mask whose size is the one passed.
            let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
            (rc == 0).then_some(set)
        }

        /// The CPU the calling thread runs on.
        pub(crate) fn current_cpu() -> Option<usize> {
            // SAFETY: `sched_getcpu` takes nothing and returns an int.
            usize::try_from(unsafe { sched_getcpu() }).ok()
        }

        /// Restricts the calling thread to `cpus`; `false` if refused.
        pub(crate) fn set_allowed(cpus: &CpuSet) -> bool {
            // SAFETY: pid 0 names the calling thread, and `cpus` is a
            // live `cpu_set_t`-sized mask whose size is the one passed;
            // the kernel only reads it.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), cpus) == 0 }
        }
    }

    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    pub(crate) mod sys {
        use super::CpuSet;

        pub(crate) fn allowed() -> Option<CpuSet> {
            None
        }

        pub(crate) fn current_cpu() -> Option<usize> {
            None
        }

        pub(crate) fn set_allowed(_: &CpuSet) -> bool {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::VecSource;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    /// `n` distinct records.
    fn records(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| match i % 3 {
                0 => TraceRecord::load(0x400000 + i, 0x1000_0000 + 64 * i),
                1 => TraceRecord::nop(0x400000 + i),
                _ => TraceRecord::branch(0x400000 + i, i % 2 == 0, i % 7 == 0),
            })
            .collect()
    }

    /// A [`VecSource`] that notes which threads fill its batches, holds a
    /// token whose count says whether it is alive, and panics on the
    /// batch that reaches record `panic_at`.
    struct Probe {
        inner: VecSource,
        threads: Arc<Mutex<HashSet<ThreadId>>>,
        _alive: Arc<()>,
        panic_at: Option<usize>,
        handed: usize,
    }

    impl Probe {
        fn boxed(n: u64, threads: &Arc<Mutex<HashSet<ThreadId>>>) -> Box<dyn TraceSource> {
            Box::new(Self {
                inner: VecSource::new(records(n)),
                threads: Arc::clone(threads),
                _alive: Arc::new(()),
                panic_at: None,
                handed: 0,
            })
        }
    }

    impl TraceSource for Probe {
        fn next_record(&mut self) -> Option<TraceRecord> {
            let mut one = Vec::with_capacity(1);
            self.next_batch(&mut one, 1);
            one.pop()
        }

        fn reset(&mut self) {
            self.inner.reset();
        }

        fn len_hint(&self) -> Option<u64> {
            self.inner.len_hint()
        }

        fn next_batch(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
            let me = std::thread::current().id();
            self.threads.lock().expect("probe lock").insert(me);
            if self.panic_at.is_some_and(|at| self.handed + max > at) {
                panic!("generator fault at record {}", self.panic_at.unwrap_or(0));
            }
            let n = self.inner.next_batch(out, max);
            self.handed += n;
            n
        }
    }

    fn threads() -> Arc<Mutex<HashSet<ThreadId>>> {
        Arc::new(Mutex::new(HashSet::new()))
    }

    /// Held by every test that starts a producer, so no other test takes
    /// the thread one of them parked.
    fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One pass through `next_batch` calls of `max` records.
    fn drain(source: &mut dyn TraceSource, max: usize) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        while source.next_batch(&mut out, max) > 0 {}
        out
    }

    #[test]
    fn dropping_mid_pass_joins_the_producer() {
        let _serial = serial();
        let seen = threads();
        let alive = Arc::new(());
        let probe = Probe {
            inner: VecSource::new(records(100_000)),
            threads: Arc::clone(&seen),
            _alive: Arc::clone(&alive),
            panic_at: None,
            handed: 0,
        };
        let mut ra = ReadAhead::new(Box::new(probe));
        let mut buf = Vec::new();
        for _ in 0..5 {
            ra.refill(&mut buf, 64);
        }
        assert_eq!(Arc::strong_count(&alive), 2, "the producer owns the source");
        drop(ra);
        // The source came back from the producer and was dropped with the
        // adapter: the producer has stopped.
        assert_eq!(Arc::strong_count(&alive), 1);
        assert_eq!(
            seen.lock().expect("probe lock").len(),
            2,
            "consumer + producer"
        );
    }

    #[test]
    #[should_panic(expected = "generator fault at record 3000")]
    fn a_producer_panic_is_raised_on_the_consumer() {
        let _serial = serial();
        let probe = Probe {
            inner: VecSource::new(records(10_000)),
            threads: threads(),
            _alive: Arc::new(()),
            panic_at: Some(3_000),
            handed: 0,
        };
        let mut ra = ReadAhead::new(Box::new(probe));
        drain(&mut ra, 64);
    }

    #[test]
    fn one_parked_thread_produces_source_after_source() {
        let _serial = serial();
        let seen = threads();
        let me = std::thread::current().id();
        for n in [3_000, 70_000, 5_000] {
            let mut ra = ReadAhead::new(Probe::boxed(n, &seen));
            assert_eq!(drain(&mut ra, 64), records(n));
        }
        // A mid-pass reset hands the source back and posts it again.
        let mut ra = ReadAhead::new(Probe::boxed(50_000, &seen));
        let mut buf = Vec::new();
        ra.refill(&mut buf, 64);
        ra.reset();
        assert_eq!(drain(&mut ra, 64), records(50_000));
        drop(ra);
        // And a producer that panicked parks like any other.
        let faulty = Probe {
            inner: VecSource::new(records(10_000)),
            threads: Arc::clone(&seen),
            _alive: Arc::new(()),
            panic_at: Some(2_000),
            handed: 0,
        };
        let mut ra = ReadAhead::new(Box::new(faulty));
        let raised = catch_unwind(AssertUnwindSafe(|| drain(&mut ra, 64)));
        assert!(raised.is_err(), "the producer's panic reaches the consumer");
        drop(ra);
        let mut ra = ReadAhead::new(Probe::boxed(4_000, &seen));
        assert_eq!(drain(&mut ra, 64), records(4_000));
        let seen = seen.lock().expect("probe lock");
        assert_eq!(seen.len(), 2, "consumer + one producer thread: {seen:?}");
        assert!(seen.contains(&me));
    }

    #[test]
    fn short_traces_one_cpu_and_no_idle_cpu_spawn_nothing() {
        let _serial = serial();
        let me = std::thread::current().id();
        let only_here = |seen: &Arc<Mutex<HashSet<ThreadId>>>| {
            *seen.lock().expect("probe lock") == HashSet::from([me])
        };
        let n = ReadAhead::MIN_RECORDS;

        let seen = threads();
        drain(&mut *ReadAhead::wrap(Probe::boxed(n - 1, &seen)), 64);
        assert!(only_here(&seen), "below MIN_RECORDS");

        // Other tests' systems may take the idle CPU, so only a spawn on
        // one CPU would be wrong here.
        let allowed = affinity::sys::allowed();
        let cpus = allowed.map_or(0, |set| set.count());
        let seen = threads();
        drain(&mut *ReadAhead::wrap(Probe::boxed(n, &seen)), 64);
        assert!(only_here(&seen) || cpus > 1, "{cpus} allowed CPUs");

        // As many simulations as CPUs once this one runs: none is idle.
        let others = cpus.saturating_sub(1);
        SYSTEMS_ALIVE.fetch_add(others, Ordering::Relaxed);
        let seen = threads();
        drain(&mut *ReadAhead::wrap(Probe::boxed(n, &seen)), 64);
        SYSTEMS_ALIVE.fetch_sub(others, Ordering::Relaxed);
        assert!(
            only_here(&seen),
            "{others} other simulations on {cpus} CPUs"
        );

        // This thread alone on its CPU: nowhere to put a producer.
        if let (Some(allowed), Some(cpu)) = (allowed, affinity::sys::current_cpu()) {
            assert!(affinity::sys::set_allowed(&affinity::CpuSet::single(cpu)));
            let seen = threads();
            drain(&mut *ReadAhead::wrap(Probe::boxed(n, &seen)), 64);
            affinity::sys::set_allowed(&allowed);
            assert!(only_here(&seen), "one allowed CPU");
        }
    }

    #[test]
    fn producer_cpus_leave_out_the_consumers() {
        let two = affinity::CpuSet([0b11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(two.others(0), Some(affinity::CpuSet::single(1)));
        assert_eq!(two.others(1), Some(affinity::CpuSet::single(0)));
        assert_eq!(two.count(), 2);
        assert_eq!(affinity::CpuSet::single(70).others(70), None);
        assert_eq!(
            affinity::CpuSet::single(3).others(5000),
            Some(affinity::CpuSet::single(3)),
            "a CPU outside the mask removes nothing"
        );
    }
}
