//! The open-loop load generator: one thread per connection, each sending
//! its share of a fixed-rate schedule when due, whatever is still in
//! flight, and reading replies in between. Speaks through
//! `pet_server::Client`.

use crate::stats::Timing;
use pet_server::Client;
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::time::{Duration, Instant};

/// How long to wait for outstanding replies after the last send.
const DRAIN: Duration = Duration::from_secs(10);

/// Longest a read blocks before the generator checks its schedule again.
const RECV_TIMEOUT: Duration = Duration::from_millis(1);

/// Lead time before the first request is due, so every thread starts on
/// schedule.
const LEAD: Duration = Duration::from_millis(2);

/// What came back for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// Nothing (yet): the reply never arrived.
    Missing,
    /// Byte-equal to the expected reply.
    Expected,
    /// Anything else, kept whole (lines joined by `\n`).
    Other(String),
}

/// One request of a schedule.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Which line of the request pool was sent.
    pub line: usize,
    pub timing: Timing,
    pub answer: Answer,
}

/// A request pool and the reply each line must get.
#[derive(Clone, Copy)]
pub struct Pool<'a> {
    pub lines: &'a [String],
    pub expected: &'a [String],
    /// Lines in a reply; an error reply is always one line.
    pub lines_per_reply: usize,
}

/// Sends `count` requests at `rate` per second. Request `i` is pool line
/// `(first + i) % pool.len()`, due at `i / rate` seconds, on connection
/// `i % clients.len()`. Returns the samples in request order.
pub fn open_loop(
    clients: &mut [Client],
    pool: Pool<'_>,
    first: usize,
    count: usize,
    rate: f64,
) -> Vec<Sample> {
    let period_ns = 1e9 / rate;
    let connections = clients.len();
    let origin = Instant::now();
    let mut samples: Vec<Sample> = (0..count)
        .map(|i| Sample {
            line: (first + i) % pool.lines.len(),
            timing: Timing {
                due: (LEAD.as_nanos() as f64 + i as f64 * period_ns) as u64,
                sent: 0,
                done: None,
            },
            answer: Answer::Missing,
        })
        .collect();
    let per_connection: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let mine: Vec<Sample> = samples
                    .iter()
                    .skip(c)
                    .step_by(connections)
                    .cloned()
                    .collect();
                scope.spawn(move || drive(client, mine, pool, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    for (c, mine) in per_connection.into_iter().enumerate() {
        for (k, s) in mine.into_iter().enumerate() {
            samples[c + k * connections] = s;
        }
    }
    samples
}

fn since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// One connection's share of the schedule.
fn drive(
    client: &mut Client,
    mut mine: Vec<Sample>,
    pool: Pool<'_>,
    origin: Instant,
) -> Vec<Sample> {
    let mut next = 0;
    let mut in_flight: VecDeque<usize> = VecDeque::new();
    let mut line = String::new();
    let mut reply = String::new();
    let mut lines_got = 0;
    let mut drain_until = None;
    // Socket timeouts tick in scheduler jiffies, so finer waits would round
    // up anyway: one short timeout, set once, bounds every blocking read.
    if client.set_read_timeout(Some(RECV_TIMEOUT)).is_err() {
        return mine;
    }
    loop {
        let mut now = since(origin);
        while next < mine.len() && mine[next].timing.due <= now {
            if client.send(&pool.lines[mine[next].line]).is_err() {
                return mine; // connection gone: the rest are lost
            }
            now = since(origin);
            mine[next].timing.sent = now;
            in_flight.push_back(next);
            next += 1;
        }
        let Some(&front) = in_flight.front() else {
            if next == mine.len() {
                return mine;
            }
            std::thread::sleep(Duration::from_nanos(
                mine[next].timing.due.saturating_sub(now),
            ));
            continue;
        };
        if next == mine.len() {
            let until = *drain_until.get_or_insert(now + DRAIN.as_nanos() as u64);
            if now >= until {
                return mine; // the rest are lost
            }
        }
        match client.recv_into(&mut line) {
            Ok(()) => {
                if lines_got > 0 {
                    reply.push('\n');
                }
                reply.push_str(&line);
                lines_got += 1;
                let is_error = lines_got == 1 && line.contains("\"ok\":false");
                if lines_got == pool.lines_per_reply || is_error {
                    mine[front].timing.done = Some(since(origin));
                    mine[front].answer = if reply == pool.expected[mine[front].line] {
                        reply.clear();
                        Answer::Expected
                    } else {
                        Answer::Other(std::mem::take(&mut reply))
                    };
                    in_flight.pop_front();
                    lines_got = 0;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return mine,
        }
    }
}

/// Sends one line and reads its whole reply (closed loop; for set-up).
pub fn roundtrip(
    client: &mut Client,
    line: &str,
    lines_per_reply: usize,
) -> std::io::Result<String> {
    client.set_read_timeout(Some(Duration::from_secs(30)))?;
    client.send(line)?;
    let mut reply = client.recv()?;
    if !reply.contains("\"ok\":false") {
        for _ in 1..lines_per_reply {
            reply.push('\n');
            reply.push_str(&client.recv()?);
        }
    }
    Ok(reply)
}
