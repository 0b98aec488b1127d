//! Trace generation on a producer thread.
//!
//! A [`PrefetchSource`] moves a generator to a thread of its own, which
//! fills fixed chunks of [`MemRef`]s a few chunks ahead of the consumer;
//! the consumer only copies records out of its current chunk. The
//! generator is the same and runs in the same order, so the stream is
//! identical to the inline one by construction: only the thread that
//! computes it changes.
//!
//! Every chunk buffer is allocated by the consumer when the source is
//! built and then circulates between the two threads over two bounded
//! channels, filled chunks one way and emptied buffers back; the
//! generator comes back to the consumer to be dropped. The producer
//! never allocates a buffer. (A producer that allocates them gets an
//! allocator arena of its own, which multiplies the peak resident set
//! for no gain.)
//!
//! Dropping the source hangs up both channels and joins the producer,
//! so it never outlives its stream. A producer panic hangs up too, and
//! is re-raised on the consumer when it reaches the chunk the producer
//! failed to fill.

use crate::record::{MemRef, TraceSource};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// References per chunk.
pub const CHUNK_REFS: usize = 1024;
/// Chunks the producer may fill ahead of the one being read. With the
/// consumer's own, a stream holds `DEPTH + 1` buffers: 64 KiB.
const DEPTH: usize = 3;

/// How a cell's trace streams are fed to its cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFeed {
    /// Each generator runs on the simulation thread, one reference per
    /// call.
    Inline,
    /// Each generator runs on a producer thread of its own
    /// ([`PrefetchSource`]).
    Prefetch,
}

impl TraceFeed {
    /// The source that feeds `generator`'s stream this way.
    pub fn source<G: TraceSource + Send + 'static>(self, generator: G) -> Box<dyn TraceSource> {
        match self {
            TraceFeed::Inline => Box::new(generator),
            TraceFeed::Prefetch => Box::new(PrefetchSource::spawn(generator)),
        }
    }

    /// `"inline"` or `"prefetch"`.
    pub fn name(self) -> &'static str {
        match self {
            TraceFeed::Inline => "inline",
            TraceFeed::Prefetch => "prefetch",
        }
    }
}

/// The consumer's ends of the two channels.
struct Link {
    /// Filled chunks, in stream order.
    full: Receiver<Vec<MemRef>>,
    /// Emptied buffers, back to the producer.
    empty: SyncSender<Vec<MemRef>>,
}

/// A trace source whose generator runs on a producer thread.
///
/// # Examples
///
/// ```
/// use tdc_trace::{profiles, PrefetchSource, SyntheticWorkload, TraceSource};
///
/// let p = profiles::spec("mcf").expect("known benchmark");
/// let mut inline = SyntheticWorkload::new(p.clone(), 7, 0);
/// let mut prefetched = PrefetchSource::spawn(SyntheticWorkload::new(p.clone(), 7, 0));
/// for _ in 0..5000 {
///     assert_eq!(inline.next_ref(), prefetched.next_ref());
/// }
/// ```
pub struct PrefetchSource<G: TraceSource + Send + 'static> {
    cur: Vec<MemRef>,
    pos: usize,
    label: String,
    /// Taken by the drop, which hangs up before it joins.
    link: Option<Link>,
    /// Hands the generator back when the producer stops.
    producer: Option<JoinHandle<G>>,
}

impl<G: TraceSource + Send + 'static> PrefetchSource<G> {
    /// Moves `generator` to a new producer thread, which starts filling
    /// chunks at once.
    ///
    /// # Panics
    ///
    /// Panics if the thread cannot be spawned.
    pub fn spawn(generator: G) -> Self {
        let label = generator.label().to_string();
        let (full_tx, full) = sync_channel(DEPTH);
        // Room for every buffer, so handing one back never blocks.
        let (empty, empty_rx) = sync_channel(DEPTH + 1);
        for _ in 0..DEPTH {
            let _ = empty.send(Vec::with_capacity(CHUNK_REFS));
        }
        let producer = std::thread::Builder::new()
            .name(format!("trace {label}"))
            .spawn(move || produce(generator, &empty_rx, &full_tx))
            .expect("the OS refused a trace producer thread");
        Self {
            // The consumer's own buffer: empty, so the first read hands
            // it to the producer and takes the first filled chunk.
            cur: Vec::with_capacity(CHUNK_REFS),
            pos: 0,
            label,
            link: Some(Link { full, empty }),
            producer: Some(producer),
        }
    }

    /// Returns the read chunk to the producer and takes the next filled
    /// one, waiting for it if need be.
    fn refill(&mut self) {
        let link = self.link.as_ref().expect("only a drop takes the link");
        let mut done = std::mem::take(&mut self.cur);
        done.clear();
        // This fails only when the producer is gone; `recv` says why.
        let _ = link.empty.send(done);
        if let Ok(chunk) = link.full.recv() {
            self.cur = chunk;
            self.pos = 0;
            return;
        }
        // The producer hung up without being stopped: it panicked.
        if let Some(Err(payload)) = self.producer.take().map(JoinHandle::join) {
            std::panic::resume_unwind(payload);
        }
        unreachable!("the trace producer for {} exited early", self.label);
    }
}

/// The producer loop: fill each empty buffer and send it on, until the
/// consumer hangs up; the generator then goes back to it.
fn produce<G: TraceSource>(
    mut generator: G,
    empty: &Receiver<Vec<MemRef>>,
    full: &SyncSender<Vec<MemRef>>,
) -> G {
    while let Ok(mut buf) = empty.recv() {
        // Within the capacity the consumer allocated: no allocation.
        for _ in 0..CHUNK_REFS {
            buf.push(generator.next_ref());
        }
        if full.send(buf).is_err() {
            break;
        }
    }
    generator
}

impl<G: TraceSource + Send + 'static> TraceSource for PrefetchSource<G> {
    fn next_ref(&mut self) -> MemRef {
        if self.pos == self.cur.len() {
            self.refill();
        }
        let r = self.cur[self.pos];
        self.pos += 1;
        r
    }

    fn label(&self) -> &str {
        &self.label
    }
}

impl<G: TraceSource + Send + 'static> Drop for PrefetchSource<G> {
    fn drop(&mut self) {
        // Hanging up both channels wakes the producer wherever it waits.
        drop(self.link.take());
        // A drop must not panic. A producer that panicked in a chunk
        // nobody read has cost the stream nothing; its panic message
        // was printed when it happened.
        if let Some(handle) = self.producer.take() {
            if handle.join().is_err() {
                eprintln!(
                    "trace producer for {} panicked past the end of its stream",
                    self.label
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{profiles, ParsecTraces, SyntheticWorkload};
    use tdc_util::VAddr;

    #[test]
    fn prefetched_stream_equals_inline_across_chunk_boundaries() {
        let p = profiles::spec("omnetpp").expect("known benchmark");
        let mut inline = SyntheticWorkload::new(p.clone(), 3, 0);
        let mut pre = PrefetchSource::spawn(SyntheticWorkload::new(p.clone(), 3, 0));
        for _ in 0..(DEPTH + 2) * CHUNK_REFS + 17 {
            assert_eq!(inline.next_ref(), pre.next_ref());
        }
        assert_eq!(pre.label(), "omnetpp");
    }

    #[test]
    fn parsec_threads_prefetch_identically() {
        let parsec = ParsecTraces::new("facesim", 9).expect("known benchmark");
        let mut inline = parsec.thread(1);
        let mut pre = TraceFeed::Prefetch.source(parsec.thread(1));
        for _ in 0..3 * CHUNK_REFS {
            assert_eq!(inline.next_ref(), pre.next_ref());
        }
        assert_eq!(pre.label(), "facesim-t1");
    }

    #[test]
    fn inline_feed_is_the_generator_itself() {
        let p = profiles::spec("mcf").expect("known benchmark");
        let mut a = TraceFeed::Inline.source(SyntheticWorkload::new(p.clone(), 1, 0));
        let mut b = SyntheticWorkload::new(p.clone(), 1, 0);
        for _ in 0..100 {
            assert_eq!(a.next_ref(), b.next_ref());
        }
        assert_eq!(TraceFeed::Prefetch.name(), "prefetch");
    }

    /// Counts down and panics at zero.
    struct Faulty(u64);

    impl TraceSource for Faulty {
        fn next_ref(&mut self) -> MemRef {
            self.0 = self.0.checked_sub(1).expect("generator fault");
            MemRef::read(VAddr(self.0 * 64))
        }
    }

    /// An endless stream that flags its own drop.
    struct Flagged(std::sync::Arc<std::sync::atomic::AtomicBool>);

    impl TraceSource for Flagged {
        fn next_ref(&mut self) -> MemRef {
            MemRef::read(VAddr(64))
        }
    }

    impl Drop for Flagged {
        fn drop(&mut self) {
            self.0.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }

    #[test]
    fn dropping_mid_chunk_joins_the_producer() {
        for consumed in [0, 1, CHUNK_REFS / 2, CHUNK_REFS + 3] {
            let dropped = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let mut pre = PrefetchSource::spawn(Flagged(std::sync::Arc::clone(&dropped)));
            for _ in 0..consumed {
                pre.next_ref();
            }
            drop(pre);
            // The join handed the generator back from the finished
            // producer, and it was dropped with the source.
            assert!(
                dropped.load(std::sync::atomic::Ordering::SeqCst),
                "after {consumed} refs"
            );
        }
    }

    #[test]
    #[should_panic(expected = "generator fault")]
    fn producer_panic_surfaces_on_the_consumer() {
        let mut pre = PrefetchSource::spawn(Faulty(CHUNK_REFS as u64 + 5));
        for _ in 0..2 * CHUNK_REFS {
            pre.next_ref();
        }
    }
}
