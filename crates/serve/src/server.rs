//! Transport: newline-delimited JSON over TCP, plus a one-shot pipe mode.
//!
//! The server is deliberately boring: one accept loop, one thread per
//! connection, one request line → one response line. A `shutdown` command
//! on any connection flips a shared flag and wakes the (blocking) acceptor
//! with a self-connection, the accept loop drains, and every connection
//! thread is joined before [`serve`] returns — so a clean exit really is
//! clean, which the CI soak job checks by grepping the server log for
//! panics after `wait`.

use crate::service::{LineResponse, Service};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The longest request line served: its bytes before the newline. A longer
/// line is answered with a `bad-request` error, and the reader discards
/// the rest of it without buffering it.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Read the next request line from `reader` and answer it, skipping blank
/// lines. Returns `None` at end of input. A line longer than
/// [`MAX_LINE_BYTES`] or not valid UTF-8 is a `bad-request` error, and the
/// following line is still read.
///
/// # Errors
/// Propagates I/O errors from the reader.
fn next_response(
    service: &Service,
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
) -> std::io::Result<Option<LineResponse>> {
    loop {
        buf.clear();
        let mut capped = reader.by_ref().take(MAX_LINE_BYTES as u64 + 1);
        if capped.read_until(b'\n', buf)? == 0 {
            return Ok(None);
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > MAX_LINE_BYTES {
            reader.skip_until(b'\n')?;
            return Ok(Some(service.bad_request(&format!(
                "request line longer than {MAX_LINE_BYTES} bytes"
            ))));
        }
        match std::str::from_utf8(buf) {
            Err(e) => {
                return Ok(Some(service.bad_request(&format!(
                    "request line is not valid UTF-8 (byte {})",
                    e.valid_up_to()
                ))))
            }
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => return Ok(Some(service.handle_line(line))),
        }
    }
}

/// Serve every line of `input`, writing one response line each to
/// `output`, until end-of-input or a `shutdown` command. This is `--once`
/// mode and the doctest harness; the TCP path funnels into the same
/// per-line handling.
///
/// # Errors
/// Propagates I/O errors from the reader or writer.
pub fn serve_once(
    service: &Service,
    input: impl std::io::Read,
    output: impl Write,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(input);
    let mut writer = BufWriter::new(output);
    let mut buf = Vec::new();
    while let Some(response) = next_response(service, &mut reader, &mut buf)? {
        writer.write_all(response.body.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if response.shutdown {
            break;
        }
    }
    writer.flush()
}

/// Run the accept loop on `listener` until a `shutdown` command arrives.
/// Returns the number of connections served.
///
/// # Errors
/// Propagates fatal listener errors. Per-connection I/O errors only end
/// that connection.
pub fn serve(service: &Service, listener: &TcpListener) -> std::io::Result<u64> {
    let stop = Arc::new(AtomicBool::new(false));
    let local = listener.local_addr()?;
    let mut served: u64 = 0;
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(_) => continue,
            };
            served += 1;
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                if handle_connection(service, stream) {
                    stop.store(true, Ordering::SeqCst);
                    // The acceptor is blocked in `incoming()`; poke it so
                    // it observes the flag. An unused inbound connection
                    // is enough.
                    let _ = TcpStream::connect(local);
                }
            });
        }
        // Scope join: every in-flight connection finishes before we return.
    });
    Ok(served)
}

/// Serve one TCP connection. Returns whether it requested shutdown.
fn handle_connection(service: &Service, stream: TcpStream) -> bool {
    let Ok(reader_stream) = stream.try_clone() else {
        return false;
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = BufWriter::new(stream);
    let mut buf = Vec::new();
    while let Ok(Some(response)) = next_response(service, &mut reader, &mut buf) {
        if writer.write_all(response.body.as_bytes()).is_err()
            || writer.write_all(b"\n").is_err()
            || writer.flush().is_err()
        {
            break;
        }
        if response.shutdown {
            return true;
        }
    }
    false
}

/// Connect to `addr`, send every line of `input`, and copy one response
/// line per request to `output` — the replay client behind
/// `qla-bench serve --connect`, used by the CI soak job to drive a scripted
/// transcript through a live server.
///
/// # Errors
/// Propagates connection and I/O errors; fails if the server closes the
/// connection before answering every line.
pub fn replay(addr: &str, input: impl std::io::Read, output: impl Write) -> std::io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut out = BufWriter::new(output);
    let mut input = BufReader::new(input);
    let mut line = Vec::new();
    loop {
        line.clear();
        if input.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        // Lines go out as raw bytes, so the server sees (and answers) a
        // line that is not UTF-8; blank lines get no answer, so skip them.
        let line = line.strip_suffix(b"\n").unwrap_or(&line);
        if std::str::from_utf8(line).is_ok_and(|text| text.trim().is_empty()) {
            continue;
        }
        writer.write_all(line)?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        let mut response = String::new();
        let read = reader.read_line(&mut response)?;
        if read == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-transcript",
            ));
        }
        out.write_all(response.as_bytes())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServeConfig, Service};
    use qla_core::{DynExperiment, Experiment, ExperimentContext};
    use qla_report::{Column, Report};

    struct Echo;

    impl Experiment for Echo {
        type Output = u64;
        fn name(&self) -> &'static str {
            "echo"
        }
        fn title(&self) -> &'static str {
            "Echo"
        }
        fn description(&self) -> &'static str {
            "toy"
        }
        fn default_trials(&self) -> usize {
            4
        }
        fn run(&self, ctx: &ExperimentContext) -> u64 {
            ctx.derived_seed(0)
        }
        fn report(&self, _ctx: &ExperimentContext, output: &u64) -> Report {
            let mut r = Report::new("echo", "Echo").with_column(Column::new("value"));
            r.push_row(qla_report::row![*output]);
            r
        }
    }

    fn test_service() -> Service {
        Service::new(
            Box::new(|name| (name == "echo").then(|| Box::new(Echo) as Box<dyn DynExperiment>)),
            ServeConfig::default(),
        )
    }

    /// Two lines no request may be: one that is not UTF-8, and one of
    /// 2 MiB, twice the line cap. Each must get a typed error and leave
    /// the reader on the next line.
    fn hostile_lines() -> Vec<u8> {
        let mut lines = b"\xff\xfe{\"cmd\": \"stats\"}\r\n".to_vec();
        lines.extend_from_slice(b"{\"cmd\": \"stats\", \"x\": \"");
        lines.resize(2 << 20, b'a');
        lines.extend_from_slice(b"\"}\n");
        lines
    }

    fn assert_hostile_lines_answered(lines: &[&str]) {
        assert_eq!(
            lines[0],
            "{\"status\":\"error\",\"error\":\"bad-request\",\
             \"detail\":\"request line is not valid UTF-8 (byte 0)\"}"
        );
        assert_eq!(
            lines[1],
            "{\"status\":\"error\",\"error\":\"bad-request\",\
             \"detail\":\"request line longer than 1048576 bytes\"}"
        );
    }

    #[test]
    fn serve_once_answers_each_line_and_stops_at_shutdown() {
        let service = test_service();
        let mut input = b"{\"experiment\": \"echo\"}\n\n".to_vec();
        input.extend(hostile_lines());
        input.extend_from_slice(
            concat!(
                "{\"cmd\": \"stats\"}\n",
                "{\"cmd\": \"shutdown\"}\n",
                "{\"experiment\": \"echo\"}\n", // after shutdown: unanswered
            )
            .as_bytes(),
        );
        let mut output = Vec::new();
        serve_once(&service, input.as_slice(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            5,
            "echo, two errors, stats, shutdown ack: {text}"
        );
        assert!(lines[0].contains("\"status\":\"ok\""));
        assert_hostile_lines_answered(&lines[1..3]);
        assert!(lines[3].contains("\"requests\":1"));
        assert!(lines[3].contains("\"errors\":2"));
        assert_eq!(lines[4], "{\"status\":\"ok\",\"shutdown\":true}");
    }

    #[test]
    fn tcp_round_trip_replays_identically_and_shuts_down_cleanly() {
        let service = test_service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();

        std::thread::scope(|scope| {
            let server = scope.spawn(|| serve(&service, &listener).unwrap());

            let transcript = concat!(
                "{\"experiment\": \"echo\", \"seed\": 1}\n",
                "{\"experiment\": \"echo\", \"seed\": 2}\n",
                "{\"experiment\": \"echo\", \"seed\": 1}\n",
            );
            let mut first = Vec::new();
            replay(&addr, transcript.as_bytes(), &mut first).unwrap();
            let mut second = Vec::new();
            replay(&addr, transcript.as_bytes(), &mut second).unwrap();
            assert_eq!(
                first, second,
                "cold and warm replays must be byte-identical"
            );

            let mut hostile = hostile_lines();
            hostile.extend_from_slice(b"{\"cmd\": \"stats\"}\n");
            let mut answers = Vec::new();
            replay(&addr, hostile.as_slice(), &mut answers).unwrap();
            let answers = String::from_utf8(answers).unwrap();
            let lines: Vec<&str> = answers.lines().collect();
            assert_eq!(lines.len(), 3, "two errors, then stats: {answers}");
            assert_hostile_lines_answered(&lines[..2]);
            assert!(lines[2].contains("\"errors\":2"));

            let mut bye = Vec::new();
            replay(&addr, "{\"cmd\": \"shutdown\"}\n".as_bytes(), &mut bye).unwrap();
            assert!(String::from_utf8(bye).unwrap().contains("shutdown"));
            let connections = server.join().unwrap();
            assert!(connections >= 3);
        });

        let snap = service.stats();
        assert_eq!(snap.requests, 6);
        assert!(snap.hits >= 2, "second replay must hit the cache");
    }

    /// Send one line on `stream` and read its one-line answer.
    fn call(stream: &mut BufReader<TcpStream>, line: &str) -> String {
        // One write per line: a split write waits out delayed ACKs.
        stream
            .get_mut()
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        let mut answer = String::new();
        stream.read_line(&mut answer).unwrap();
        answer
    }

    #[test]
    fn concurrent_stats_lines_are_never_torn() {
        const CLIENTS: u64 = 4;
        const REQUESTS: u64 = 300;
        const MAX_IN_FLIGHT: u64 = 2;
        let service = Service::new(
            Box::new(|name| (name == "echo").then(|| Box::new(Echo) as Box<dyn DynExperiment>)),
            ServeConfig {
                cache_capacity: 3,
                max_in_flight: MAX_IN_FLIGHT as usize,
                ..ServeConfig::default()
            },
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let connect = || BufReader::new(TcpStream::connect(addr).unwrap());
        let done = AtomicBool::new(false);
        // Threads report instead of asserting, so a failure still reaches
        // the shutdown below rather than leaving the server running.
        let (polled, answered) = std::thread::scope(|scope| {
            let server = scope.spawn(|| serve(&service, &listener));
            let poller = scope.spawn(|| {
                let mut stream = connect();
                let (mut polls, mut bad) = (0u64, Vec::new());
                while polls == 0 || !done.load(Ordering::SeqCst) {
                    let line = call(&mut stream, "{\"cmd\": \"stats\"}");
                    let stats = crate::Json::parse(line.trim_end()).unwrap();
                    let count = |name: &str| stats.field(name).and_then(|v| v.as_u64()).unwrap();
                    if count("hits") + count("misses") != count("requests")
                        || count("in_flight") > MAX_IN_FLIGHT
                    {
                        bad.push(line);
                    }
                    polls += 1;
                }
                (polls, bad)
            });
            let clients: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    scope.spawn(move || {
                        let mut stream = connect();
                        (0..REQUESTS)
                            .map(|i| {
                                let seed = (client + i) % 5;
                                let line =
                                    format!("{{\"experiment\": \"echo\", \"seed\": {seed}}}");
                                call(&mut stream, &line)
                            })
                            .filter(|answer| {
                                !answer.contains("\"status\":\"ok\"")
                                    && !answer.contains("\"error\":\"overloaded\"")
                            })
                            .collect::<Vec<String>>()
                    })
                })
                .collect();
            let answered: Vec<_> = clients.into_iter().map(|c| c.join()).collect();
            done.store(true, Ordering::SeqCst);
            let polled = poller.join();
            let mut bye = Vec::new();
            replay(
                &addr.to_string(),
                "{\"cmd\": \"shutdown\"}\n".as_bytes(),
                &mut bye,
            )
            .unwrap();
            server.join().unwrap().unwrap();
            (polled, answered)
        });
        let (polls, torn) = polled.unwrap();
        assert!(polls > 0);
        assert!(torn.is_empty(), "{} bad stats lines: {torn:?}", torn.len());
        for unexpected in answered {
            assert_eq!(unexpected.unwrap(), Vec::<String>::new());
        }
        let snap = service.stats();
        assert_eq!(snap.requests + snap.shed, CLIENTS * REQUESTS);
        assert_eq!(snap.hits + snap.misses, snap.requests);
        assert_eq!(snap.in_flight, 0);
        assert!(snap.peak_in_flight <= MAX_IN_FLIGHT);
    }
}
