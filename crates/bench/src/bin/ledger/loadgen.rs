//! The open-loop load generator: one TCP connection, two threads.
//!
//! The sender owns the schedule — line `n` is due at `start + n / rate` —
//! and at every wake writes *all* lines already due in one `write`, so a
//! late wake never lowers the offered rate. The receiver reads replies in
//! order and stamps each one against its line's *scheduled* send time, so
//! queueing anywhere (generator, socket, server) counts as latency. Lines
//! are encoded before the clock starts.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::stats::{median, percentile};

/// A reply kept for the oracle check.
pub struct Sampled {
    pub index: usize,
    pub scheduled: Instant,
    pub received: Instant,
    pub reply: String,
}

/// Replies the receiver hands over while the phase is still running.
pub type Sink = Arc<Mutex<Vec<Sampled>>>;

const SINK_POISONED: &str = "the receiver thread panicked holding the sink";

/// Takes every reply the receiver has handed over so far.
pub fn drain(sink: &Sink) -> Vec<Sampled> {
    std::mem::take(&mut *sink.lock().expect(SINK_POISONED))
}

/// What one phase measured.
pub struct Outcome {
    pub rate: f64,
    /// Per received reply: scheduled send → reply read, µs.
    pub latency_us: Vec<f64>,
    /// Per sent line: wake → schedule slip, µs.
    pub lag_us: Vec<f64>,
    pub sent: usize,
    pub received: usize,
    /// Replies with `"ok":false` or a wrong id.
    pub errors: usize,
}

impl Outcome {
    fn missing(&self) -> usize {
        self.sent.max(self.received) - self.received
    }

    pub fn failed(&self) -> usize {
        self.errors + self.missing()
    }

    pub fn p(&self, q: f64) -> f64 {
        if self.latency_us.is_empty() {
            f64::INFINITY
        } else {
            percentile(&self.latency_us, q)
        }
    }

    pub fn lag_p99_us(&self) -> f64 {
        if self.lag_us.is_empty() {
            0.0
        } else {
            percentile(&self.lag_us, 0.99)
        }
    }
}

/// How long the receiver waits past the last scheduled send before the
/// remaining replies count as missing.
const REPLY_DEADLINE: Duration = Duration::from_secs(1);

/// Offers `lines` to `addr` at `rate` lines/s. Replies whose index is set
/// in `keep` go to `sink` as they arrive.
pub fn run(
    addr: SocketAddr,
    lines: &[String],
    rate: f64,
    keep: &[bool],
    sink: &Sink,
) -> std::io::Result<Outcome> {
    let n = lines.len();
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader = stream.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_millis(50)))?;
    let encoded: Vec<Vec<u8>> = lines
        .iter()
        .map(|l| {
            let mut b = Vec::with_capacity(l.len() + 1);
            b.extend_from_slice(l.as_bytes());
            b.push(b'\n');
            b
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let at = move |i: usize| start + Duration::from_secs_f64(i as f64 / rate);

    // The calling thread sends; one scoped thread receives.
    let (lag_us, latency_us, received, errors) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut reader = BufReader::with_capacity(1 << 16, reader);
            let mut latency = Vec::with_capacity(n);
            let mut errors = 0usize;
            let mut buf = Vec::new();
            let mut idx = 0usize;
            let give_up = at(n.saturating_sub(1)) + REPLY_DEADLINE;
            while idx < n {
                match reader.read_until(b'\n', &mut buf) {
                    Ok(0) => break,
                    Ok(_) if buf.last() == Some(&b'\n') => {
                        let now = Instant::now();
                        latency.push(now.saturating_duration_since(at(idx)).as_secs_f64() * 1e6);
                        let line = String::from_utf8_lossy(&buf[..buf.len() - 1]);
                        let id_ok = line.starts_with(&format!("{{\"id\":{idx},"));
                        if !id_ok || line.contains("\"ok\":false") {
                            errors += 1;
                        }
                        if keep.get(idx).copied().unwrap_or(false) {
                            sink.lock().expect(SINK_POISONED).push(Sampled {
                                index: idx,
                                scheduled: at(idx),
                                received: now,
                                reply: line.into_owned(),
                            });
                        }
                        buf.clear();
                        idx += 1;
                    }
                    Ok(_) => {}
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        if Instant::now() > give_up {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
            (latency, idx, errors)
        });
        let lag = send(stream, &encoded, at, rate);
        let (latency, received, errors) = receiver.join().expect("receiver thread");
        (lag, latency, received, errors)
    });
    let lag_us = lag_us?;
    Ok(Outcome {
        rate,
        sent: lag_us.len(),
        lag_us,
        latency_us,
        received,
        errors,
    })
}

/// The sender loop: at each wake, write every line already due, then
/// sleep until the next one is. Returns each line's schedule slip in µs.
fn send(
    mut stream: TcpStream,
    encoded: &[Vec<u8>],
    at: impl Fn(usize) -> Instant,
    rate: f64,
) -> std::io::Result<Vec<f64>> {
    let n = encoded.len();
    let start = at(0);
    let mut lag = Vec::with_capacity(n);
    let mut buf = Vec::new();
    let mut next = 0;
    while next < n {
        let now = Instant::now();
        let due = if now < start {
            0
        } else {
            let elapsed = (now - start).as_secs_f64();
            ((elapsed * rate).floor() as usize + 1).min(n)
        };
        if due > next {
            buf.clear();
            for (i, line) in encoded.iter().enumerate().take(due).skip(next) {
                buf.extend_from_slice(line);
                lag.push(now.saturating_duration_since(at(i)).as_secs_f64() * 1e6);
            }
            stream.write_all(&buf)?;
            next = due;
        }
        if next < n {
            let wake = at(next);
            let now = Instant::now();
            if wake > now {
                std::thread::sleep(wake - now);
            }
        }
    }
    Ok(lag)
}

/// One step of the rate ladder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Step {
    pub rate: f64,
    pub p99_us: f64,
    pub lag_p99_us: f64,
    pub failed: usize,
    pub backlog_growing: bool,
}

/// Latency limit a ladder step must meet.
const P99_LIMIT_US: f64 = 2000.0;
/// Schedule slip beyond which a step measured the generator, not the
/// server.
const LAG_LIMIT_US: f64 = 200.0;

impl Step {
    pub fn from_outcome(o: &Outcome) -> Step {
        Step {
            rate: o.rate,
            p99_us: o.p(0.99),
            lag_p99_us: o.lag_p99_us(),
            failed: o.failed(),
            backlog_growing: backlog_growing(&o.latency_us),
        }
    }

    /// Every reply received, p99 within the limit, the generator on
    /// schedule, and no queue building up.
    pub fn passes(&self) -> bool {
        self.failed == 0
            && self.p99_us <= P99_LIMIT_US
            && self.lag_p99_us <= LAG_LIMIT_US
            && !self.backlog_growing
    }
}

/// A queue that grows over a step shows as latency rising through it:
/// the last quarter's median exceeds the first quarter's by over 1 ms.
fn backlog_growing(latency_us: &[f64]) -> bool {
    let q = latency_us.len() / 4;
    if q == 0 {
        return false;
    }
    median(&latency_us[latency_us.len() - q..]) > median(&latency_us[..q]) + 1000.0
}

/// The highest rate of the passing prefix of an ascending ladder (0 if
/// the first step already fails).
pub fn max_passing_rate(steps: &[Step]) -> f64 {
    steps
        .iter()
        .take_while(|s| s.passes())
        .last()
        .map_or(0.0, |s| s.rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(rate: f64, p99_us: f64) -> Step {
        Step {
            rate,
            p99_us,
            lag_p99_us: 50.0,
            failed: 0,
            backlog_growing: false,
        }
    }

    #[test]
    fn ladder_stops_at_the_first_failing_step() {
        let steps = [
            step(10_000.0, 300.0),
            step(11_000.0, 900.0),
            step(12_100.0, 2500.0),
            step(13_310.0, 400.0), // after the stop: ignored
        ];
        assert_eq!(max_passing_rate(&steps), 11_000.0);
        assert_eq!(max_passing_rate(&steps[2..]), 0.0);
        assert_eq!(max_passing_rate(&[]), 0.0);
    }

    #[test]
    fn each_condition_invalidates_a_step() {
        assert!(step(1.0, 2000.0).passes());
        assert!(!step(1.0, 2000.1).passes());
        let lagging = Step {
            lag_p99_us: 201.0,
            ..step(1.0, 10.0)
        };
        assert!(!lagging.passes());
        let lossy = Step {
            failed: 1,
            ..step(1.0, 10.0)
        };
        assert!(!lossy.passes());
        let growing = Step {
            backlog_growing: true,
            ..step(1.0, 10.0)
        };
        assert!(!growing.passes());
    }

    #[test]
    fn backlog_shows_as_rising_latency() {
        let flat: Vec<f64> = (0..400).map(|n| 100.0 + (n % 7) as f64).collect();
        assert!(!backlog_growing(&flat));
        let rising: Vec<f64> = (0..400).map(|n| 100.0 + 10.0 * n as f64).collect();
        assert!(backlog_growing(&rising));
        assert!(!backlog_growing(&[5.0, 9000.0]));
    }
}
