//! A connected stream socket of either family, with the timeout plumbing
//! the link supervisor relies on, and [`Readiness`] — the one readiness
//! wait the hub and entity loops park in.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// A connected byte stream: TCP or Unix-domain.
#[derive(Debug)]
pub enum Conn {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Conn {
    /// Bound the blocking window of subsequent reads. `None` blocks
    /// forever; the poll loops use small timeouts instead of non-blocking
    /// mode so writes on the same fd stay blocking-with-timeout.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            Conn::Uds(s) => s.set_read_timeout(t),
        }
    }

    /// Bound the blocking window of subsequent writes — a stalled peer
    /// surfaces as a send timeout instead of a hung thread.
    pub fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(t),
            Conn::Uds(s) => s.set_write_timeout(t),
        }
    }

    /// Tear the connection down in both directions.
    pub fn shutdown(&self) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Conn::Uds(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    /// Read into `buf`. Returns `Ok(0)` on EOF, `Ok(None)`-like
    /// `WouldBlock`/`TimedOut` is surfaced as `Err` of that kind for the
    /// caller to classify via [`is_poll_timeout`].
    pub fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Uds(s) => s.read(buf),
        }
    }

    /// Write all of `buf` or fail (including on send timeout).
    pub fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.write_all(buf),
            Conn::Uds(s) => s.write_all(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write_vectored(bufs),
            Conn::Uds(s) => s.write_vectored(bufs),
        }
    }

    /// Write every segment, in order, completely — the batch-flush
    /// primitive. Multiple segments go out through `write_vectored`
    /// (one syscall in the common case, resumed across partial writes);
    /// a single segment falls back to plain [`Conn::write_all`].
    pub fn write_vectored_all(&mut self, segs: &[&[u8]]) -> io::Result<()> {
        match segs {
            [] => return Ok(()),
            [only] => return self.write_all(only),
            _ => {}
        }
        let mut first = 0usize; // first segment not fully written
        let mut off = 0usize; // bytes of `segs[first]` already written
        let mut slices: Vec<io::IoSlice<'_>> = Vec::with_capacity(segs.len());
        while first < segs.len() {
            slices.clear();
            slices.push(io::IoSlice::new(&segs[first][off..]));
            for s in &segs[first + 1..] {
                slices.push(io::IoSlice::new(s));
            }
            match self.write_vectored(&slices) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "vectored write made no progress",
                    ))
                }
                Ok(mut n) => {
                    while n > 0 && first < segs.len() {
                        let rem = segs[first].len() - off;
                        if n >= rem {
                            n -= rem;
                            first += 1;
                            off = 0;
                        } else {
                            off += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

impl AsRawFd for Conn {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Conn::Tcp(s) => s.as_raw_fd(),
            Conn::Uds(s) => s.as_raw_fd(),
        }
    }
}

/// `struct pollfd` of poll(2).
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;

extern "C" {
    // `nfds_t` is `unsigned long` on Linux.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: c_int) -> c_int;
}

/// The sockets one event loop parks on: a reusable poll(2) set. Fill it
/// with [`push`](Self::push) (slot `i` is the `i`-th push since the last
/// [`clear`](Self::clear)), block in [`wait_readable`](Self::wait_readable),
/// then ask [`ready`](Self::ready) per slot. The set keeps its buffer, so
/// a loop that refills it every sweep does not allocate.
#[derive(Default)]
pub struct Readiness {
    fds: Vec<PollFd>,
}

impl Readiness {
    /// Empty the set, keeping its buffer.
    pub fn clear(&mut self) {
        self.fds.clear();
    }

    /// Add a slot. A `None` slot (say, a link with no connection) is
    /// never ready.
    pub fn push(&mut self, fd: Option<RawFd>) {
        self.fds.push(PollFd {
            // poll(2) skips negative descriptors.
            fd: fd.unwrap_or(-1),
            events: POLLIN,
            revents: 0,
        });
    }

    /// Block until at least one slot is readable or `timeout` elapses
    /// (a zero timeout only samples; others round up to whole
    /// milliseconds, so the wait never ends early). Readable means
    /// pending data, a pending accept on a listener, EOF, or an error a
    /// read will report. A signal interruption reads as "nothing ready".
    pub fn wait_readable(&mut self, timeout: Duration) -> io::Result<()> {
        for p in &mut self.fds {
            p.revents = 0;
        }
        let ms = timeout
            .as_nanos()
            .div_ceil(1_000_000)
            .min(c_int::MAX as u128) as c_int;
        // SAFETY: `self.fds` is a live, exclusively borrowed array of
        // exactly `len()` `#[repr(C)]` pollfd records; poll writes only
        // the `revents` fields inside it.
        let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
            for p in &mut self.fds {
                p.revents = 0;
            }
        }
        Ok(())
    }

    /// Did the last wait find slot `i` readable?
    pub fn ready(&self, i: usize) -> bool {
        self.fds[i].revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
    }

    /// Forget slot `i`'s readiness: its socket was replaced after the
    /// wait, so the result described a descriptor that is gone.
    pub fn forget(&mut self, i: usize) {
        self.fds[i].revents = 0;
    }
}

/// Is this error just "the poll window elapsed with no data"?
pub fn is_poll_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use std::time::Instant;

    /// A connected (client, server) pair of each socket family.
    fn pairs(tag: &str) -> Vec<(&'static str, Conn, Conn)> {
        let mut out = Vec::new();
        let tcp = Addr::parse("tcp:127.0.0.1:0").unwrap().listen().unwrap();
        let client = tcp
            .local_addr()
            .unwrap()
            .connect(Duration::from_secs(1))
            .unwrap();
        out.push(("tcp", client, tcp.accept().unwrap().unwrap()));
        let path = std::env::temp_dir().join(format!("pg-wait-{tag}-{}.sock", std::process::id()));
        let uds = Addr::Uds(path).listen().unwrap();
        let client = uds
            .local_addr()
            .unwrap()
            .connect(Duration::from_secs(1))
            .unwrap();
        out.push(("uds", client, uds.accept().unwrap().unwrap()));
        out
    }

    /// Wait once over `fds`; the per-slot readiness.
    fn wait(fds: &[Option<RawFd>], timeout: Duration) -> Vec<bool> {
        let mut set = Readiness::default();
        for &fd in fds {
            set.push(fd);
        }
        set.wait_readable(timeout).unwrap();
        (0..fds.len()).map(|i| set.ready(i)).collect()
    }

    #[test]
    fn wait_readable_sees_pending_data() {
        for (family, mut client, server) in pairs("data") {
            client.write_all(b"x").unwrap();
            let mut set = Readiness::default();
            set.push(Some(server.as_raw_fd()));
            set.wait_readable(Duration::from_secs(5)).unwrap();
            assert!(set.ready(0), "{family}");
            set.forget(0);
            assert!(!set.ready(0), "{family}: forget");
            // A refilled set reuses its buffer and sees the data again.
            set.clear();
            set.push(Some(server.as_raw_fd()));
            set.wait_readable(Duration::from_secs(5)).unwrap();
            assert!(set.ready(0), "{family}: refilled");
        }
    }

    #[test]
    fn wait_readable_idle_waits_out_its_timeout() {
        for (family, _client, server) in pairs("idle") {
            let t = Instant::now();
            let ready = wait(&[Some(server.as_raw_fd())], Duration::from_millis(30));
            assert!(t.elapsed() >= Duration::from_millis(30), "{family}");
            assert_eq!(ready, vec![false], "{family}");
        }
    }

    #[test]
    fn wait_readable_reports_peer_shutdown_as_eof() {
        for (family, client, mut server) in pairs("eof") {
            client.shutdown();
            let ready = wait(&[Some(server.as_raw_fd())], Duration::from_secs(5));
            assert_eq!(ready, vec![true], "{family}");
            let mut dec = medium::codec::FrameDecoder::new();
            let err = crate::wire::poll_messages_into(&mut server, &mut dec, &mut Vec::new())
                .unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::UnexpectedEof,
                "{family}: {err:?}"
            );
        }
    }

    #[test]
    fn wait_readable_never_readies_a_none_slot() {
        for (family, mut client, server) in pairs("none") {
            client.write_all(b"x").unwrap();
            let ready = wait(
                &[None, Some(server.as_raw_fd()), None],
                Duration::from_secs(5),
            );
            assert_eq!(ready, vec![false, true, false], "{family}");
            // Only `None` slots: nothing can wake the wait early.
            let t = Instant::now();
            assert_eq!(wait(&[None], Duration::from_millis(5)), vec![false]);
            assert!(t.elapsed() >= Duration::from_millis(5), "{family}");
        }
    }

    #[test]
    fn wait_readable_zero_timeout_returns_at_once() {
        for (family, _client, server) in pairs("zero") {
            let t = Instant::now();
            let ready = wait(&[Some(server.as_raw_fd())], Duration::ZERO);
            assert_eq!(ready, vec![false], "{family}");
            assert!(
                t.elapsed() < Duration::from_secs(1),
                "{family}: {:?}",
                t.elapsed()
            );
        }
    }

    #[test]
    fn read_timeout_polls_without_data() {
        let l = Addr::parse("tcp:127.0.0.1:0").unwrap().listen().unwrap();
        let addr = l.local_addr().unwrap();
        let mut client = addr.connect(Duration::from_secs(1)).unwrap();
        let _server = l.accept().unwrap().unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let mut buf = [0u8; 8];
        let err = client.read(&mut buf).unwrap_err();
        assert!(is_poll_timeout(&err), "{err:?}");
    }

    #[test]
    fn vectored_write_delivers_all_segments_in_order() {
        let l = Addr::parse("tcp:127.0.0.1:0").unwrap().listen().unwrap();
        let addr = l.local_addr().unwrap();
        let mut client = addr.connect(Duration::from_secs(1)).unwrap();
        let mut server = l.accept().unwrap().unwrap();
        // Segments larger than typical socket buffers force partial
        // writes, so the resume-across-partial-writes loop is exercised.
        let a = vec![0xAAu8; 300_000];
        let b = vec![0xBBu8; 77];
        let c = vec![0xCCu8; 150_001];
        let total = a.len() + b.len() + c.len();
        let writer = std::thread::spawn(move || {
            client.write_vectored_all(&[&a, &b, &c]).unwrap();
            client
        });
        let mut got = Vec::with_capacity(total);
        let mut buf = [0u8; 65536];
        while got.len() < total {
            let n = server.read(&mut buf).unwrap();
            assert!(n > 0, "EOF before all segments arrived");
            got.extend_from_slice(&buf[..n]);
        }
        writer.join().unwrap();
        assert_eq!(got.len(), total);
        assert!(got[..300_000].iter().all(|&x| x == 0xAA));
        assert!(got[300_000..300_077].iter().all(|&x| x == 0xBB));
        assert!(got[300_077..].iter().all(|&x| x == 0xCC));
    }

    #[test]
    fn uds_round_trips_bytes() {
        let dir = std::env::temp_dir().join(format!("protogen-conn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sock");
        let addr = Addr::Uds(path);
        let l = addr.listen().unwrap();
        let mut client = addr.connect(Duration::from_secs(1)).unwrap();
        let mut server = l.accept().unwrap().unwrap();
        client.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        server.read(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        drop(l);
        let _ = std::fs::remove_dir_all(dir);
    }
}
