//! A worker's inbox: many producers, one consumer.
//!
//! Unlike a general channel, the consumer can wait for a message to
//! arrive *without taking it* ([`Mailbox::wait`]). The worker relies on
//! that: it waits outside its cell lock, then takes the lock and drains
//! under it, so a caller that holds the lock and sees an empty mailbox
//! knows that every message queued before it has already been served
//! (DESIGN §2.1).
//!
//! Closing a mailbox refuses further sends and drops whatever is still
//! queued, so a caller waiting on a reply channel carried by a dropped
//! message sees the channel disconnect instead of waiting out its
//! deadline.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
    /// The consumer is parked in [`Mailbox::wait`] or [`Mailbox::recv`];
    /// senders skip the wake-up syscall otherwise.
    parked: bool,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    /// Queue length, readable without the lock (the idle check on the
    /// in-proc fast path).
    len: AtomicUsize,
}

/// A cloneable handle to one worker's mailbox.
pub struct Mailbox<T>(Arc<Inner<T>>);

/// A send to a closed mailbox; carries the message back.
pub struct Closed<T>(pub T);

impl<T> fmt::Debug for Closed<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Closed(..)")
    }
}

impl<T> Clone for Mailbox<T> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for Mailbox<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mailbox {{ len: {} }}", self.len())
    }
}

impl<T> Mailbox<T> {
    /// An empty, open mailbox.
    pub fn new() -> Self {
        Self(Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                closed: false,
                parked: false,
            }),
            ready: Condvar::new(),
            len: AtomicUsize::new(0),
        }))
    }

    /// Enqueues `msg`; fails only once the mailbox is closed.
    pub fn send(&self, msg: T) -> Result<(), Closed<T>> {
        let mut s = self.lock();
        if s.closed {
            return Err(Closed(msg));
        }
        s.queue.push_back(msg);
        self.0.len.store(s.queue.len(), Ordering::Release);
        if s.parked {
            s.parked = false;
            self.0.ready.notify_one();
        }
        Ok(())
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.0.len.load(Ordering::Acquire)
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes the oldest message, if any.
    pub fn try_recv(&self) -> Option<T> {
        let mut s = self.lock();
        let msg = s.queue.pop_front();
        self.0.len.store(s.queue.len(), Ordering::Release);
        msg
    }

    /// Blocks until a message is queued (`true`) or the mailbox is
    /// closed (`false`). Takes nothing.
    pub fn wait(&self) -> bool {
        let mut s = self.lock();
        loop {
            if s.closed {
                return false;
            }
            if !s.queue.is_empty() {
                return true;
            }
            s = self.park(s);
        }
    }

    /// Blocks until a message is queued and takes it; `None` once the
    /// mailbox is closed.
    pub fn recv(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if s.closed {
                return None;
            }
            if let Some(msg) = s.queue.pop_front() {
                self.0.len.store(s.queue.len(), Ordering::Release);
                return Some(msg);
            }
            s = self.park(s);
        }
    }

    /// The state lock. A panicking holder cannot leave the queue
    /// half-updated, so poisoning is ignored.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.0.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn park<'a>(&self, mut s: MutexGuard<'a, State<T>>) -> MutexGuard<'a, State<T>> {
        s.parked = true;
        self.0.ready.wait(s).unwrap_or_else(|e| e.into_inner())
    }

    /// Refuses every later send and drops the queued messages.
    pub fn close(&self) {
        let dropped = {
            let mut s = self.lock();
            s.closed = true;
            self.0.len.store(0, Ordering::Release);
            self.0.ready.notify_all();
            std::mem::take(&mut s.queue)
        };
        drop(dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fifo_order_and_len() {
        let m = Mailbox::new();
        for i in 0..3 {
            m.send(i).expect("open");
        }
        assert_eq!(m.len(), 3);
        assert_eq!(m.try_recv(), Some(0));
        assert_eq!(m.recv(), Some(1));
        assert_eq!(m.try_recv(), Some(2));
        assert!(m.is_empty());
        assert_eq!(m.try_recv(), None);
    }

    #[test]
    fn wait_does_not_take_the_message() {
        let m = Mailbox::new();
        let producer = m.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            producer.send(7u32).expect("open");
        });
        assert!(m.wait());
        assert_eq!(m.len(), 1, "wait must leave the message queued");
        assert_eq!(m.try_recv(), Some(7));
        h.join().expect("producer");
    }

    #[test]
    fn close_refuses_sends_drops_the_queue_and_wakes_the_consumer() {
        let m: Mailbox<std::sync::mpsc::Sender<()>> = Mailbox::new();
        let (tx, rx) = std::sync::mpsc::channel();
        m.send(tx).expect("open");
        let consumer = m.clone();
        let h = std::thread::spawn(move || {
            // Drain the one message, then park until the close.
            let _ = consumer.recv();
            consumer.wait()
        });
        std::thread::sleep(Duration::from_millis(20));
        let (tx2, rx2) = std::sync::mpsc::channel();
        m.send(tx2).expect("open");
        // The consumer may or may not have seen the second message yet;
        // either way the close must wake it and report closure.
        m.close();
        assert!(m.send(std::sync::mpsc::channel().0).is_err());
        let _ = h.join().expect("consumer");
        assert!(rx.recv().is_err(), "the taken message's sender is gone");
        assert!(rx2.recv().is_err(), "a dropped message's sender is gone");
        assert!(!m.wait());
        assert_eq!(m.recv().map(|_| ()), None);
    }
}
