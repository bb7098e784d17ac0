//! A loopback TCP relay that keeps a copy of every byte it passes, so
//! that the wire codec can be timed on the frames a distributed run
//! really sends.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The bytes of one relayed connection, each direction in order.
#[derive(Default)]
pub struct Capture {
    /// Client (entity) → server (hub).
    pub up: Vec<u8>,
    /// Server → client.
    pub down: Vec<u8>,
}

/// A running relay: clients connect to [`Tap::addr`], each connection is
/// forwarded to the target.
pub struct Tap {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<Vec<Capture>>,
}

const POLL: Duration = Duration::from_millis(20);

impl Tap {
    pub fn start(target: SocketAddr) -> std::io::Result<Tap> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let acceptor = std::thread::spawn(move || {
            let mut pipes = Vec::new();
            while !flag.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((client, _)) => {
                        let server =
                            TcpStream::connect(target).expect("connect to the relay target");
                        let up = pipe(&client, &server, &flag);
                        let down = pipe(&server, &client, &flag);
                        pipes.push((up, down));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL / 20),
                    Err(e) => panic!("relay accept: {e}"),
                }
            }
            pipes
                .into_iter()
                .map(|(up, down)| Capture {
                    up: up.join().expect("relay pipe panicked"),
                    down: down.join().expect("relay pipe panicked"),
                })
                .collect()
        });
        Ok(Tap {
            addr,
            stop,
            acceptor,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop relaying once both ends are done with it, and hand back what
    /// every connection carried.
    pub fn finish(self) -> Vec<Capture> {
        self.stop.store(true, Ordering::Release);
        self.acceptor.join().expect("relay acceptor panicked")
    }
}

/// Copy `from` to `to` until `from` ends, or until it idles after the
/// relay was stopped; return the bytes copied.
fn pipe(from: &TcpStream, to: &TcpStream, stop: &Arc<AtomicBool>) -> JoinHandle<Vec<u8>> {
    let mut from = from.try_clone().expect("clone relay socket");
    let mut to = to.try_clone().expect("clone relay socket");
    let stop = stop.clone();
    from.set_read_timeout(Some(POLL))
        .expect("relay read timeout");
    to.set_nodelay(true).expect("relay nodelay");
    std::thread::spawn(move || {
        let mut seen = Vec::new();
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            match from.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    seen.extend_from_slice(&buf[..n]);
                    if to.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        let _ = to.shutdown(Shutdown::Write);
        seen
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relays_both_directions_and_keeps_a_copy() {
        let server = TcpListener::bind("127.0.0.1:0").unwrap();
        let target = server.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut s, _) = server.accept().unwrap();
            let mut buf = [0u8; 5];
            s.read_exact(&mut buf).unwrap();
            s.write_all(&buf).unwrap();
            s.write_all(b"!").unwrap();
        });
        let tap = Tap::start(target).unwrap();
        let mut c = TcpStream::connect(tap.addr()).unwrap();
        c.write_all(b"hello").unwrap();
        let mut back = Vec::new();
        c.read_to_end(&mut back).unwrap();
        echo.join().unwrap();
        drop(c);
        let captured = tap.finish();
        assert_eq!(back, b"hello!");
        assert_eq!(captured.len(), 1);
        assert_eq!(captured[0].up, b"hello");
        assert_eq!(captured[0].down, b"hello!");
    }
}
