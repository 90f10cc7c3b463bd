//! Real `energydx serve` processes: spawn on a state directory, read
//! the bound address from the banner, talk the framed protocol, and
//! read CPU time and peak RSS from `/proc`.

use energydx_fleetd::protocol::{read_frame, Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// One server process, killed and reaped on drop.
#[derive(Debug)]
pub struct Server {
    child: Child,
    // Held open so a late write to stdout never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Spawns `cli serve <args>` and waits for its banner.
    pub fn spawn(cli: &Path, args: &[String], log: &Path) -> Server {
        let stderr = std::fs::File::create(log).expect("server log file");
        let mut child = Command::new(cli)
            .arg("serve")
            .args(args)
            // Pinned deployment panel, so served reports are
            // byte-comparable to the batch reference.
            .env("ENERGYDX_DETERMINISTIC_TIME", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .expect("spawn energydx serve");
        let mut stdout =
            BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("read server banner");
        let addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| {
                let _ = child.kill();
                let _ = child.wait();
                panic!("no banner from server (see {})", log.display())
            })
            .to_string();
        Server {
            child,
            _stdout: stdout,
            addr,
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Nanoseconds on a CPU, summed over the process's live threads
    /// (the first field of each `/proc/<pid>/task/<tid>/schedstat`).
    /// Unlike `/proc/<pid>/stat`'s 10 ms ticks this resolves a burst of
    /// a few uploads. The threads that serve a run (accept loop, ingest
    /// worker, one per open connection) live through it.
    pub fn cpu_ns(&self) -> u64 {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{}/task", self.pid()))
        else {
            return 0;
        };
        tasks
            .flatten()
            .filter_map(|task| {
                std::fs::read_to_string(task.path().join("schedstat")).ok()
            })
            .filter_map(|stat| {
                stat.split_whitespace().next()?.parse::<u64>().ok()
            })
            .sum::<u64>()
    }

    /// Peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> u64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .unwrap_or_default()
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .unwrap_or(0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A blocking connection that sends pre-encoded request frames, so a
/// timed round trip holds no client-side encoding.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let deadline = Some(Duration::from_secs(60));
        stream.set_read_timeout(deadline).expect("read timeout");
        stream.set_write_timeout(deadline).expect("write timeout");
        Conn { stream }
    }

    /// Sends one encoded frame and waits for the decoded reply; a
    /// socket error, a timeout or a damaged reply is an `Err`.
    pub fn call_frame(&mut self, frame: &[u8]) -> Result<Response, String> {
        self.stream.write_all(frame).map_err(|e| e.to_string())?;
        match read_frame(&mut self.stream) {
            Ok(Some(frame)) => {
                Response::decode(&frame).map_err(|e| e.to_string())
            }
            Ok(None) => Err("server closed the connection".to_string()),
            Err(e) => Err(e.to_string()),
        }
    }

    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.call_frame(&req.encode())
    }

    /// [`Conn::call_frame`] timed from the first byte written to the
    /// reply decoded, in milliseconds.
    pub fn timed(&mut self, frame: &[u8]) -> (Result<Response, String>, f64) {
        let t0 = Instant::now();
        let resp = self.call_frame(frame);
        (resp, t0.elapsed().as_secs_f64() * 1e3)
    }
}

/// A deployment as the workload runs it: one daemon, or a coordinator
/// in front of workers. `servers[0]` is the entry process.
#[derive(Debug)]
pub struct Fleet {
    pub servers: Vec<Server>,
}

/// Where one server keeps its state.
#[derive(Debug, Clone)]
pub struct ServerDirs {
    pub state: PathBuf,
    pub spill: Option<(PathBuf, usize)>,
}

/// `--jobs` of every server: one analysis thread each, so two
/// in-flight requests and the load generator share two cores without
/// oversubscription.
pub const JOBS: usize = 1;

fn serve_args(dirs: &ServerDirs) -> Vec<String> {
    let mut args = vec![
        "--listen".to_string(),
        "127.0.0.1:0".to_string(),
        "--jobs".to_string(),
        JOBS.to_string(),
        "--state".to_string(),
        dirs.state.display().to_string(),
    ];
    if let Some((dir, budget)) = &dirs.spill {
        args.extend([
            "--spill-dir".to_string(),
            dir.display().to_string(),
            "--mem-budget".to_string(),
            budget.to_string(),
        ]);
    }
    args
}

impl Fleet {
    /// Starts the servers over `workers` (one entry: a single daemon;
    /// more: workers behind a coordinator) and returns once the entry
    /// process answers `Health`, with the seconds that took.
    pub fn start(
        cli: &Path,
        workers: &[ServerDirs],
        logs: &Path,
    ) -> (Fleet, f64) {
        let t0 = Instant::now();
        let mut servers = Vec::new();
        if workers.len() == 1 {
            servers.push(Server::spawn(
                cli,
                &serve_args(&workers[0]),
                &logs.join("daemon.log"),
            ));
        } else {
            let spawned: Vec<Server> = workers
                .iter()
                .enumerate()
                .map(|(k, dirs)| {
                    Server::spawn(
                        cli,
                        &serve_args(dirs),
                        &logs.join(format!("worker{k}.log")),
                    )
                })
                .collect();
            let addrs: Vec<&str> =
                spawned.iter().map(|s| s.addr.as_str()).collect();
            let coordinator = Server::spawn(
                cli,
                &[
                    "--coordinator".to_string(),
                    "--listen".to_string(),
                    "127.0.0.1:0".to_string(),
                    "--jobs".to_string(),
                    JOBS.to_string(),
                    "--workers".to_string(),
                    addrs.join(","),
                ],
                &logs.join("coordinator.log"),
            );
            servers.push(coordinator);
            servers.extend(spawned);
        }
        let mut conn = Conn::connect(&servers[0].addr);
        match conn.call(&Request::Health) {
            Ok(Response::Health { .. }) => {}
            other => panic!("entry process failed its health check: {other:?}"),
        }
        (Fleet { servers }, t0.elapsed().as_secs_f64())
    }

    pub fn entry(&self) -> &str {
        &self.servers[0].addr
    }

    /// The processes holding state: the daemon, or every worker.
    pub fn stateful(&self) -> &[Server] {
        if self.servers.len() == 1 {
            &self.servers
        } else {
            &self.servers[1..]
        }
    }

    pub fn cpu_ns(&self) -> u64 {
        self.servers.iter().map(Server::cpu_ns).sum()
    }

    pub fn peak_rss_mb(&self) -> f64 {
        self.servers.iter().map(Server::peak_rss_kib).sum::<u64>() as f64
            / 1024.0
    }
}
