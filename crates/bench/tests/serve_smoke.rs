//! Session-daemon lifecycle tests driving the `tracetool` binary.
//!
//! The contract under test (DESIGN §S42): for every golden fixture the
//! race verdict a streamed session reports is byte-identical to one-shot
//! `tracetool analyze` — serially, under `--shards 4`, across ≥ 4
//! concurrent client sessions, after a client is killed mid-stream, and
//! after the daemon itself dies mid-session and is restarted with
//! `serve --resume`.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use futrace_offline::trace_events;
use futrace_runtime::trace;
use futrace_util::wire::proto::{read_frame, write_frame, Message};

fn tracetool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tracetool"))
}

/// Every golden fixture under tests/data, sorted.
fn fixtures() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data");
    let mut out: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixture dir")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "ftrc"))
        .collect();
    out.sort();
    assert!(out.len() >= 4, "expected the golden fixture set in {dir:?}");
    out
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("futrace_serve_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A running daemon plus the buffered reader over its stdout.
struct Daemon {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Spawns `tracetool serve --listen 127.0.0.1:0 <extra>` and waits
    /// for the "listening on ADDR" line to learn the picked port.
    fn start(extra: &[&str]) -> Daemon {
        let mut child = tracetool()
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn daemon");
        let mut stdout = BufReader::new(child.stdout.take().expect("daemon stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read listen line");
        let addr = line
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected daemon banner: {line:?}"))
            .trim()
            .to_string();
        Daemon {
            child,
            stdout,
            addr,
        }
    }

    /// Sends `Shutdown`, waits for exit, and returns (exit code, the
    /// rest of the daemon's stdout — the drain summary).
    fn shutdown(mut self) -> (Option<i32>, String) {
        let out = tracetool()
            .args(["client", &self.addr, "--shutdown"])
            .output()
            .expect("run client --shutdown");
        assert_eq!(
            out.status.code(),
            Some(0),
            "shutdown failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let status = self.child.wait().expect("daemon exit");
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut self.stdout, &mut rest).expect("daemon summary");
        (status.code(), rest)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Everything from the first verdict line onward — the section required
/// to be byte-identical between the one-shot and streamed paths.
fn verdict_section(stdout: &str) -> &str {
    let at = stdout
        .find("determinacy")
        .unwrap_or_else(|| panic!("no verdict in:\n{stdout}"));
    let line_start = stdout[..at].rfind('\n').map_or(0, |i| i + 1);
    &stdout[line_start..]
}

/// One-shot `tracetool analyze FILE` → (verdict section, exit code).
fn one_shot(file: &PathBuf) -> (String, Option<i32>) {
    let out = tracetool()
        .arg("analyze")
        .arg(file)
        .output()
        .expect("run analyze");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (verdict_section(&stdout).to_string(), out.status.code())
}

/// `tracetool client ADDR FILE <extra>` → (stdout, exit code).
fn client(addr: &str, file: &PathBuf, extra: &[&str]) -> (String, Option<i32>) {
    let out = tracetool()
        .arg("client")
        .arg(addr)
        .arg(file)
        .args(extra)
        .output()
        .expect("run client");
    assert!(
        out.stderr.is_empty(),
        "client stderr for {file:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.code(),
    )
}

#[test]
fn streamed_verdicts_match_one_shot_for_every_fixture() {
    let dir = scratch_dir("oneshot");
    let daemon = Daemon::start(&["--checkpoint-dir", dir.to_str().unwrap()]);

    let mut finished = 0u64;
    for file in fixtures() {
        let (want, want_code) = one_shot(&file);

        // Default chunking (the fixture's own framed chunks) and forced
        // re-chunking both must agree with one-shot, serially and under
        // the sharded backend.
        for extra in [
            &[][..],
            &["--chunk-events", "8"][..],
            &["--shards", "4", "--chunk-events", "8"][..],
        ] {
            let (stdout, code) = client(&daemon.addr, &file, extra);
            assert_eq!(
                verdict_section(&stdout),
                want,
                "streamed vs one-shot verdict for {file:?} with {extra:?}"
            );
            assert_eq!(code, want_code, "exit code for {file:?} with {extra:?}");
            finished += 1;
        }
    }

    let (code, summary) = daemon.shutdown();
    assert_eq!(code, Some(0), "daemon drain: {summary}");
    assert!(
        summary.contains(&format!("{finished} session(s) finished")),
        "summary: {summary}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn four_concurrent_clients_share_one_daemon() {
    let dir = scratch_dir("concurrent");
    let daemon = Daemon::start(&[
        "--workers",
        "4",
        "--checkpoint-dir",
        dir.to_str().unwrap(),
    ]);

    let files: Vec<PathBuf> = fixtures().into_iter().take(4).collect();
    let expected: Vec<(String, Option<i32>)> = files.iter().map(one_shot).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = files
            .iter()
            .map(|file| {
                let addr = daemon.addr.clone();
                scope.spawn(move || client(&addr, file, &["--chunk-events", "8"]))
            })
            .collect();
        for ((handle, file), (want, want_code)) in
            handles.into_iter().zip(&files).zip(&expected)
        {
            let (stdout, code) = handle.join().expect("client thread");
            assert_eq!(
                verdict_section(&stdout),
                want,
                "concurrent streamed verdict for {file:?}"
            );
            assert_eq!(code, *want_code, "exit code for {file:?}");
        }
    });

    let (code, summary) = daemon.shutdown();
    assert_eq!(code, Some(0), "daemon drain: {summary}");
    assert!(
        summary.contains("4 session(s) finished"),
        "summary: {summary}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Splits a fixture into per-8-event chunk payloads, exactly as
/// `client --chunk-events 8` does.
fn chunk_payloads(file: &PathBuf) -> Vec<Vec<u8>> {
    let blob = std::fs::read(file).expect("fixture");
    let events: Vec<_> = trace_events(&blob, false)
        .collect::<Result<_, _>>()
        .expect("decode fixture");
    events.chunks(8).map(trace::encode).collect()
}

#[test]
fn killed_client_leaves_a_resumable_checkpoint() {
    let dir = scratch_dir("clientkill");
    let daemon = Daemon::start(&[
        "--resume",
        "--checkpoint-dir",
        dir.to_str().unwrap(),
    ]);
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data/prodcons_racy.ftrc");
    let (want, want_code) = one_shot(&file);

    // Speak the wire protocol by hand: open a session, feed three
    // chunks, then vanish without Finish or Suspend — the "kill -9 the
    // client" case. The daemon must suspend the session to disk on EOF.
    let payloads = chunk_payloads(&file);
    assert!(payloads.len() > 4, "need an interior kill point");
    {
        let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
        write_frame(
            &mut stream,
            &Message::Open {
                shards: 0,
                checkpoint_every: 0,
                lenient: false,
                trace_name: "prodcons_racy".to_string(),
            },
        )
        .expect("open");
        assert!(matches!(
            read_frame(&mut stream).expect("hello").expect("hello"),
            Message::Hello {
                resumed_chunks: 0,
                ..
            }
        ));
        for (seq, payload) in payloads.iter().take(3).enumerate() {
            write_frame(
                &mut stream,
                &Message::Chunk {
                    seq: seq as u64,
                    payload: payload.clone(),
                },
            )
            .expect("chunk");
            assert!(matches!(
                read_frame(&mut stream).expect("delta").expect("delta"),
                Message::VerdictDelta { .. }
            ));
        }
        // Drop: abrupt disconnect mid-stream.
    }

    // The daemon suspends on EOF asynchronously; wait for the file.
    let checkpoint = futrace_service::checkpoint_path(&dir, "prodcons_racy");
    for _ in 0..100 {
        if checkpoint.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(checkpoint.exists(), "daemon never wrote {checkpoint:?}");

    // A fresh client re-streams the full trace under the same session
    // name; the daemon resumes from the checkpoint and the final
    // verdict is byte-identical to an uninterrupted one-shot run.
    let (stdout, code) = client(
        &daemon.addr,
        &file,
        &["--chunk-events", "8", "--name", "prodcons_racy"],
    );
    assert!(
        stdout.contains("resumed: daemon skipped"),
        "expected a resume notice:\n{stdout}"
    );
    assert_eq!(verdict_section(&stdout), want, "resumed verdict");
    assert_eq!(code, want_code);
    assert!(
        !checkpoint.exists(),
        "finish must delete the consumed checkpoint"
    );

    let (dcode, _) = daemon.shutdown();
    assert_eq!(dcode, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_daemon_resumes_with_byte_identical_report() {
    let dir = scratch_dir("daemonkill");
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data/futtree_racy.ftrc");
    let (want, want_code) = one_shot(&file);

    // First daemon: the client streams three chunks and suspends, so a
    // checkpoint is durably on disk; then the daemon is killed outright
    // (no drain) — the mid-session death case.
    let daemon_a = Daemon::start(&["--checkpoint-dir", dir.to_str().unwrap()]);
    let (stdout, code) = client(
        &daemon_a.addr,
        &file,
        &[
            "--chunk-events",
            "8",
            "--name",
            "futtree",
            "--suspend-after",
            "3",
        ],
    );
    assert_eq!(code, Some(0), "suspended client exits clean:\n{stdout}");
    assert!(
        stdout.contains("suspended after 3 chunk(s)"),
        "suspension notice:\n{stdout}"
    );
    assert!(
        futrace_service::checkpoint_path(&dir, "futtree").exists(),
        "checkpoint on disk"
    );
    drop(daemon_a); // SIGKILL, no drain

    // Second daemon, same checkpoint dir, --resume: the re-streamed
    // session must skip the completed prefix and report the same bytes.
    let daemon_b = Daemon::start(&[
        "--resume",
        "--checkpoint-dir",
        dir.to_str().unwrap(),
    ]);
    let (stdout, code) = client(
        &daemon_b.addr,
        &file,
        &["--chunk-events", "8", "--name", "futtree"],
    );
    assert!(
        stdout.contains("resumed: daemon skipped"),
        "expected a resume notice:\n{stdout}"
    );
    assert_eq!(verdict_section(&stdout), want, "resumed verdict");
    assert_eq!(code, want_code);

    let (dcode, summary) = daemon_b.shutdown();
    assert_eq!(dcode, Some(0), "daemon drain: {summary}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_after_periodic_checkpoints_skips_every_fed_chunk() {
    let dir = scratch_dir("periodic");
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data/prodcons_racy.ftrc");
    assert!(chunk_payloads(&file).len() > 5, "need an interior suspension point");
    let (want, want_code) = one_shot(&file);

    // Periodic cuts after chunks 2 and 4, then a suspension after chunk
    // 5. The suspension's cut covers every fed chunk, so it replaces the
    // periodic one from chunk 4.
    let daemon_a = Daemon::start(&["--checkpoint-dir", dir.to_str().unwrap()]);
    let (stdout, code) = client(
        &daemon_a.addr,
        &file,
        &[
            "--chunk-events",
            "8",
            "--name",
            "periodic",
            "--checkpoint-every",
            "2",
            "--suspend-after",
            "5",
        ],
    );
    assert_eq!(code, Some(0), "suspended client exits clean:\n{stdout}");
    assert!(
        stdout.contains("suspended after 5 chunk(s)"),
        "suspension notice:\n{stdout}"
    );
    drop(daemon_a); // SIGKILL, no drain

    let daemon_b = Daemon::start(&[
        "--resume",
        "--checkpoint-dir",
        dir.to_str().unwrap(),
    ]);
    let (stdout, code) = client(
        &daemon_b.addr,
        &file,
        &["--chunk-events", "8", "--name", "periodic", "--checkpoint-every", "2"],
    );
    assert!(
        stdout.contains("resumed: daemon skipped 5 "),
        "expected all five fed chunks skipped:\n{stdout}"
    );
    assert_eq!(verdict_section(&stdout), want, "resumed verdict");
    assert_eq!(code, want_code);

    let (dcode, summary) = daemon_b.shutdown();
    assert_eq!(dcode, Some(0), "daemon drain: {summary}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn draining_daemon_suspends_inflight_sessions() {
    let dir = scratch_dir("drain");
    let daemon = Daemon::start(&["--checkpoint-dir", dir.to_str().unwrap()]);
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data/actor_racy.ftrc");

    // Park a half-fed session on the daemon (no Finish yet), then drain.
    let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
    write_frame(
        &mut stream,
        &Message::Open {
            shards: 0,
            checkpoint_every: 0,
            lenient: false,
            trace_name: "parked".to_string(),
        },
    )
    .expect("open");
    read_frame(&mut stream).expect("hello");
    for (seq, payload) in chunk_payloads(&file).iter().take(3).enumerate() {
        write_frame(
            &mut stream,
            &Message::Chunk {
                seq: seq as u64,
                payload: payload.clone(),
            },
        )
        .expect("chunk");
        read_frame(&mut stream).expect("delta");
    }

    let (code, summary) = daemon.shutdown();
    assert_eq!(code, Some(0), "drain exit: {summary}");
    // The parked session was suspended, not dropped: the drain summary
    // counts it and its checkpoint file exists for `serve --resume`.
    assert!(summary.contains("1 suspended"), "summary: {summary}");
    assert!(
        futrace_service::checkpoint_path(&dir, "parked").exists(),
        "parked checkpoint"
    );
    // The parked client sees the Suspended notice.
    match read_frame(&mut stream) {
        Ok(Some(Message::Suspended { chunks })) => assert_eq!(chunks, 3),
        other => panic!("expected Suspended, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
