//! The server as a child process, and a keep-alive HTTP/1.1 client of the
//! benchmark's own (the one in `qatk-serve` belongs to the program under
//! test).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One keep-alive connection. Requests go out whole and pre-encoded; the
/// reply body is borrowed from the connection's buffer until the next call.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` that belong to the previous response.
    consumed: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .and_then(|_| stream.set_write_timeout(Some(IO_TIMEOUT)))
            .and_then(|_| stream.set_nodelay(true))
            .map_err(|e| format!("configure socket: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
            consumed: 0,
        })
    }

    /// Send one encoded request and read its response: `(status, body)`.
    pub fn send(&mut self, raw: &[u8]) -> Result<(u16, &[u8]), String> {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        self.stream
            .write_all(raw)
            .map_err(|e| format!("write: {e}"))?;
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| "response head is not UTF-8".to_owned())?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let len = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse::<usize>().ok())?
            })
            .ok_or("response without Content-Length")?;
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        self.consumed = head_end + len;
        Ok((status, &self.buf[head_end..head_end + len]))
    }

    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("connection closed by server".to_owned()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// Encode a request with a body (`POST`) or without one (`GET`).
pub fn encode(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
    if method == "POST" {
        raw.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    raw.push_str("\r\n");
    raw.push_str(body);
    raw.into_bytes()
}

/// `GET path` on a fresh connection; the body as text.
pub fn get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut conn = Conn::connect(addr)?;
    let (status, body) = conn.send(&encode("GET", path, ""))?;
    Ok((status, String::from_utf8_lossy(body).into_owned()))
}

/// A running `quest serve`. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawn `quest serve <args> --addr 127.0.0.1:0` and wait until it
    /// answers `/healthz` with 200. Returns the server and the seconds from
    /// spawn to that first 200.
    pub fn boot(quest: &Path, args: &[String]) -> Result<(Server, f64), String> {
        let start = Instant::now();
        let mut child = Command::new(quest)
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", quest.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // the port is the kernel's choice; the server prints it once bound
        let addr = loop {
            let mut line = String::new();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let status = child.wait().map(|s| s.to_string()).unwrap_or_default();
                    return Err(format!("quest serve exited before listening ({status})"));
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.strip_prefix("listening on http://") {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                match addr.parse::<SocketAddr>() {
                    Ok(a) => break a,
                    Err(_) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("unparseable listen line {line:?}"));
                    }
                }
            }
        };
        let server = Server {
            child,
            addr,
            _stdout: stdout,
        };
        let (status, body) = get(addr, "/healthz")?;
        if status != 200 {
            return Err(format!("/healthz answered {status}: {body}"));
        }
        Ok((server, start.elapsed().as_secs_f64()))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL, then reap.
    pub fn kill(mut self) -> Result<(), String> {
        self.child.kill().map_err(|e| format!("kill: {e}"))?;
        self.child.wait().map_err(|e| format!("wait: {e}"))?;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // already reaped after `kill`; otherwise stop it now
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
