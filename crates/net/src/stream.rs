//! Byte-stream transport: TCP and Unix-domain sockets behind one type.
//!
//! Addresses are strings: `host:port` binds/connects TCP on localhost
//! or beyond; `unix:/path/to.sock` uses a Unix-domain socket. A bound
//! TCP listener on port 0 reports its kernel-assigned port through
//! [`NetListener::local_addr_string`], which is how spawned workers
//! advertise themselves (they print `listening on <addr>`).
//!
//! Sockets stay in blocking mode for their whole life. A read or write
//! that must not block says so per call (`recv`/`send` with
//! `MSG_DONTWAIT`), because `O_NONBLOCK` belongs to the socket and so to
//! every `try_clone` of it: flipping it for one reader would make the
//! writer's calls fail with `WouldBlock` too.
//!
//! [`FrameReader`] is the one buffered reader of length-prefixed frames
//! the hot loops share: the worker's service loop and the coordinator's
//! relay threads.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::codec::{frame_extent, framed_len};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Prefix selecting a Unix-domain socket address.
pub const UNIX_PREFIX: &str = "unix:";

/// A listening socket on either transport.
#[derive(Debug)]
pub enum NetListener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener; the path is unlinked on drop.
    Unix(UnixListener, PathBuf),
}

impl NetListener {
    /// Binds `addr` (`host:port` or `unix:/path`).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &str) -> io::Result<Self> {
        match addr.strip_prefix(UNIX_PREFIX) {
            Some(path) => {
                let path = PathBuf::from(path);
                // A previous run's stale socket file would fail the bind.
                let _ = std::fs::remove_file(&path);
                Ok(NetListener::Unix(UnixListener::bind(&path)?, path))
            }
            None => Ok(NetListener::Tcp(TcpListener::bind(addr)?)),
        }
    }

    /// The bound address in the same string syntax [`bind`](Self::bind)
    /// accepts (TCP port 0 resolves to the assigned port).
    pub fn local_addr_string(&self) -> String {
        match self {
            NetListener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "?:?".into()),
            NetListener::Unix(_, path) => format!("{UNIX_PREFIX}{}", path.display()),
        }
    }

    /// Accepts one connection.
    ///
    /// # Errors
    ///
    /// Propagates accept failures.
    pub fn accept(&self) -> io::Result<NetStream> {
        match self {
            NetListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(NetStream::Tcp(s))
            }
            NetListener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                Ok(NetStream::Unix(s))
            }
        }
    }
}

impl Drop for NetListener {
    fn drop(&mut self) {
        if let NetListener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A connected byte stream on either transport.
#[derive(Debug)]
pub enum NetStream {
    /// TCP connection (Nagle disabled: token messages are small and
    /// latency-critical).
    Tcp(TcpStream),
    /// Unix-domain connection.
    Unix(UnixStream),
}

impl NetStream {
    /// Connects to `addr`, retrying with exponential backoff (1 ms
    /// doubling to a 100 ms cap — bring-up races resolve in
    /// milliseconds, but hammering a listener that is seconds away from
    /// existing, e.g. a respawning worker, helps nobody) until
    /// `timeout` elapses.
    ///
    /// # Errors
    ///
    /// Once the deadline passes: an error of the final attempt's kind,
    /// whose message names the address, the deadline, and the final
    /// underlying OS error — "connection refused" alone, with no hint
    /// of where or for how long, is what it replaces.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<Self> {
        const BACKOFF_CAP: Duration = Duration::from_millis(100);
        let deadline = Instant::now() + timeout;
        let mut backoff = Duration::from_millis(1);
        loop {
            let attempt = match addr.strip_prefix(UNIX_PREFIX) {
                Some(path) => UnixStream::connect(path).map(NetStream::Unix),
                None => TcpStream::connect(addr).map(|s| {
                    let _ = s.set_nodelay(true);
                    NetStream::Tcp(s)
                }),
            };
            match attempt {
                Ok(s) => return Ok(s),
                Err(e) if Instant::now() >= deadline => {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("connecting to {addr} gave up after {timeout:?}: {e}"),
                    ));
                }
                Err(_) => {
                    std::thread::sleep(
                        backoff.min(deadline.saturating_duration_since(Instant::now())),
                    );
                    backoff = (backoff * 2).min(BACKOFF_CAP);
                }
            }
        }
    }

    /// An independently readable/writable handle to the same socket
    /// (one side reads on a dedicated thread, the other writes).
    ///
    /// # Errors
    ///
    /// Propagates descriptor duplication failures.
    pub fn try_clone(&self) -> io::Result<Self> {
        match self {
            NetStream::Tcp(s) => Ok(NetStream::Tcp(s.try_clone()?)),
            NetStream::Unix(s) => Ok(NetStream::Unix(s.try_clone()?)),
        }
    }

    /// Shuts down both directions, unblocking any reader thread.
    pub fn shutdown(&self) {
        match self {
            NetStream::Tcp(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
            NetStream::Unix(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }

    /// Bounds blocking reads; `None` blocks forever.
    ///
    /// # Errors
    ///
    /// Propagates setsockopt failures.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.set_read_timeout(t),
            NetStream::Unix(s) => s.set_read_timeout(t),
        }
    }

    fn fd(&self) -> RawFd {
        match self {
            NetStream::Tcp(s) => s.as_raw_fd(),
            NetStream::Unix(s) => s.as_raw_fd(),
        }
    }

    /// One `recv` into `buf`: `block` waits as the socket's read timeout
    /// allows, otherwise the call returns at once. `Ok(0)` is EOF (or an
    /// empty `buf`); `WouldBlock` means nothing arrived in time.
    fn recv(&self, buf: &mut [u8], block: bool) -> io::Result<usize> {
        sys::recv(self.fd(), buf, block)
    }

    /// One `send` of `buf` that never blocks and never raises `SIGPIPE`;
    /// it may send only a prefix.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::WouldBlock`] while the send buffer is full, and
    /// any other socket error (a closed peer is `BrokenPipe`).
    pub(crate) fn send_nonblocking(&self, buf: &[u8]) -> io::Result<usize> {
        sys::send(self.fd(), buf)
    }

    /// The peer's address, for error messages.
    pub fn peer_string(&self) -> String {
        match self {
            NetStream::Tcp(s) => s
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "tcp:?".into()),
            NetStream::Unix(s) => match s.peer_addr().ok().and_then(|a| {
                a.as_pathname()
                    .map(|p| format!("{UNIX_PREFIX}{}", p.display()))
            }) {
                Some(p) => p,
                None => "unix:?".into(),
            },
        }
    }
}

impl Read for NetStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.read(buf),
            NetStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for NetStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.write(buf),
            NetStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.flush(),
            NetStream::Unix(s) => s.flush(),
        }
    }
}

/// How long [`FrameReader::fill`] may wait for bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// Take what the socket holds now.
    No,
    /// Block up to this long for the first byte. The kernel rounds the
    /// timeout up to its tick, so a short one lasts a few milliseconds.
    Upto(Duration),
    /// Block until bytes or EOF arrive.
    Forever,
}

/// What one [`FrameReader::fill`] got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Filled {
    /// This many bytes arrived. `Bytes(0)` means `fill` did not read:
    /// the buffer is full of complete frames not yet taken.
    Bytes(usize),
    /// Nothing arrived: the socket was empty, the wait timed out, or a
    /// signal interrupted it.
    Nothing,
    /// The peer closed the stream after a whole frame.
    Eof,
}

/// The buffer a [`FrameReader`] starts with; it grows only for a frame
/// whose checked length prefix says it is larger.
const READ_BUF: usize = 64 << 10;

/// A buffered reader of length-prefixed frames over one [`NetStream`].
///
/// Reads land in one buffer that was initialised once: it is compacted
/// in place and grows only when a frame's declared length — already
/// checked against the 64 MiB cap — does not fit. [`next_frame`]
/// hands out complete frames straight from it, so steady-state reading
/// allocates nothing and copies each byte once, out of the kernel.
///
/// Being buffered, it may read past the frame its owner wants next. The
/// exact-length [`read_msg`](crate::codec::read_msg) stays the reader
/// for streams that change hands (handshakes, bring-up).
///
/// [`next_frame`]: FrameReader::next_frame
#[derive(Debug)]
pub struct FrameReader {
    stream: NetStream,
    buf: Vec<u8>,
    /// Start of the first frame not yet handed out.
    start: usize,
    /// End of the bytes read.
    end: usize,
    /// The socket's read timeout as last set.
    timeout: Option<Duration>,
}

impl FrameReader {
    /// Takes over `stream`'s reading, clearing its read timeout.
    ///
    /// # Errors
    ///
    /// Propagates setsockopt failures.
    pub fn new(stream: NetStream) -> io::Result<Self> {
        stream.set_read_timeout(None)?;
        Ok(FrameReader {
            stream,
            buf: vec![0; READ_BUF],
            start: 0,
            end: 0,
            timeout: None,
        })
    }

    /// Current buffer size: 64 KiB, or the largest frame seen.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Whether the bytes read reach the end of the buffer: after a
    /// read, whether it used up all its room. One that did not took
    /// everything the socket held at that moment, so a drain can stop
    /// there instead of asking again only to hear `EAGAIN`.
    pub fn is_full(&self) -> bool {
        self.end == self.buf.len()
    }

    /// The next complete frame (length prefix included) already
    /// buffered, or `None` until more bytes arrive.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] for a length prefix above the
    /// frame cap; the stream cannot be resynchronised after one.
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        let at = self.start;
        let Some(n) = framed_len(&self.buf[at..self.end])? else {
            return Ok(None);
        };
        self.start += n;
        Ok(Some(&self.buf[at..at + n]))
    }

    /// One read from the socket, waiting as `wait` says. Take every
    /// buffered frame with [`next_frame`](Self::next_frame) first: the
    /// room a read gets is what is left after them.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] when the peer closed inside a
    /// frame, [`io::ErrorKind::InvalidData`] for a length prefix above
    /// the frame cap, and socket errors.
    pub fn fill(&mut self, wait: Wait) -> io::Result<Filled> {
        self.make_room()?;
        if self.end == self.buf.len() {
            return Ok(Filled::Bytes(0));
        }
        let block = match wait {
            Wait::No => false,
            Wait::Upto(t) if t.is_zero() => false,
            Wait::Upto(t) => {
                self.arm(Some(t))?;
                true
            }
            Wait::Forever => {
                self.arm(None)?;
                true
            }
        };
        match self.stream.recv(&mut self.buf[self.end..], block) {
            Ok(0) => self.at_eof(),
            Ok(n) => {
                self.end += n;
                Ok(Filled::Bytes(n))
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(Filled::Nothing)
            }
            Err(e) => Err(e),
        }
    }

    /// Sets the socket's read timeout, unless it already is `t`.
    fn arm(&mut self, t: Option<Duration>) -> io::Result<()> {
        if self.timeout != t {
            self.stream.set_read_timeout(t)?;
            self.timeout = t;
        }
        Ok(())
    }

    /// Moves the unread bytes to the front when the frame they start
    /// would not fit behind them, and grows the buffer when that frame
    /// is larger than all of it.
    fn make_room(&mut self) -> io::Result<()> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            return Ok(());
        }
        // Checked against the frame cap before the buffer may grow to it.
        let need = frame_extent(&self.buf[self.start..self.end])?;
        if self.buf.len() - self.start < need || self.end == self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if need > self.buf.len() {
            self.buf.resize(need, 0);
        }
        Ok(())
    }

    /// EOF: clean when the buffered bytes are whole frames.
    fn at_eof(&self) -> io::Result<Filled> {
        let mut at = self.start;
        while at < self.end {
            match framed_len(&self.buf[at..self.end])? {
                Some(n) => at += n,
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("peer closed inside a frame ({} bytes)", self.end - at),
                    ))
                }
            }
        }
        Ok(Filled::Eof)
    }
}

/// The socket calls std does not offer: `recv`/`send` with per-call
/// flags.
mod sys {
    use std::ffi::{c_int, c_void};
    use std::io;
    use std::os::fd::RawFd;

    #[cfg(not(target_os = "linux"))]
    compile_error!("fireaxe-net passes Linux `MSG_*` flag values to recv/send");

    const MSG_DONTWAIT: c_int = 0x40;
    const MSG_NOSIGNAL: c_int = 0x4000;

    extern "C" {
        #[link_name = "recv"]
        fn c_recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
        #[link_name = "send"]
        fn c_send(fd: c_int, buf: *const c_void, len: usize, flags: c_int) -> isize;
    }

    fn result(n: isize) -> io::Result<usize> {
        usize::try_from(n).map_err(|_| io::Error::last_os_error())
    }

    pub(super) fn recv(fd: RawFd, buf: &mut [u8], block: bool) -> io::Result<usize> {
        let flags = if block { 0 } else { MSG_DONTWAIT };
        // SAFETY: `buf` is a live, writable slice for the whole call and
        // the kernel writes at most `buf.len()` bytes into it. `fd` is
        // borrowed from a socket the caller holds open; a bad descriptor
        // would only make the call fail.
        result(unsafe { c_recv(fd, buf.as_mut_ptr().cast(), buf.len(), flags) })
    }

    pub(super) fn send(fd: RawFd, buf: &[u8]) -> io::Result<usize> {
        // SAFETY: `buf` is a live slice for the whole call and the kernel
        // reads at most `buf.len()` bytes from it. `fd` as in `recv`.
        result(unsafe {
            c_send(
                fd,
                buf.as_ptr().cast(),
                buf.len(),
                MSG_DONTWAIT | MSG_NOSIGNAL,
            )
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::codec::{read_msg, write_msg, Msg};

    #[test]
    fn tcp_listener_reports_assigned_port_and_carries_messages() {
        let listener = NetListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr_string();
        assert!(!addr.ends_with(":0"), "port resolved: {addr}");
        let t = std::thread::spawn(move || {
            let mut s = listener.accept().unwrap();
            let msg = read_msg(&mut s).unwrap().unwrap();
            write_msg(&mut s, &msg).unwrap();
        });
        let mut c = NetStream::connect(&addr, Duration::from_secs(5)).unwrap();
        write_msg(&mut c, &Msg::Run { budget: 77 }).unwrap();
        match read_msg(&mut c).unwrap().unwrap() {
            Msg::Run { budget } => assert_eq!(budget, 77),
            other => panic!("unexpected echo {other:?}"),
        }
        t.join().unwrap();
    }

    #[test]
    fn unix_listener_round_trips_and_unlinks_on_drop() {
        let path =
            std::env::temp_dir().join(format!("fireaxe-net-test-{}.sock", std::process::id()));
        let addr = format!("{UNIX_PREFIX}{}", path.display());
        let listener = NetListener::bind(&addr).unwrap();
        assert_eq!(listener.local_addr_string(), addr);
        let t = std::thread::spawn(move || {
            let mut s = listener.accept().unwrap();
            assert!(matches!(read_msg(&mut s).unwrap().unwrap(), Msg::Finish));
            drop(s);
            drop(listener);
        });
        let mut c = NetStream::connect(&addr, Duration::from_secs(5)).unwrap();
        write_msg(&mut c, &Msg::Finish).unwrap();
        assert!(read_msg(&mut c).unwrap().is_none(), "peer closed cleanly");
        t.join().unwrap();
        assert!(!path.exists(), "socket file unlinked");
    }
}
