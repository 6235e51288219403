//! Frame transports: the same `"SR"` CRC frames over an in-process
//! duplex, a TCP stream, or a Unix-domain socket.
//!
//! [`Transport`] is the narrow waist between the protocol layer and the
//! medium. The in-process [`Endpoint`] moves whole frames through a
//! byte queue; [`StreamTransport`] moves the identical bytes through
//! any `Read + Write` stream, reassembling frame boundaries from the
//! length prefix. Nothing above this module can tell the difference — which is exactly what lets the chaos
//! harness drive every seed over loopback TCP and require behavioural
//! equality with the duplex runs.
//!
//! ## Stream decoding rules
//!
//! A stream reader buffers bytes until one whole frame is present, cut
//! by the header's length prefix. Before trusting that prefix it
//! validates the fixed header (magic, version, kind) and caps the
//! length at [`MAX_FRAME_LEN`]: a corrupt or hostile prefix must fail
//! fast, not drive an unbounded allocation. Because one bad byte
//! desynchronises a byte stream permanently (unlike the datagram-ish
//! duplex), header validation failures are connection-fatal errors
//! here, not per-frame skips.
//!
//! Timeouts map to `Ok(None)` ("nothing yet"), EOF and protocol
//! violations map to `Err` ("this connection is dead") — the two
//! outcomes a retrying client treats very differently.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use synchrel_sim::fault::{mix, NemesisPlan};

use crate::proto::{
    frame_len_hint, Endpoint, FrameError, HEADER_LEN, MAGIC, MAX_FRAME_LEN, VERSION,
};

/// A bidirectional frame pipe: whole `"SR"` frames in, whole frames
/// out, transport-agnostic.
pub trait Transport {
    /// Deliver one encoded frame toward the peer.
    fn send(&mut self, frame: &[u8]) -> io::Result<()>;

    /// The next frame from the peer. `Ok(None)` means nothing is
    /// available right now (empty in-process queue, or a socket read
    /// timed out); `Err` means the connection is unusable.
    fn recv(&mut self) -> io::Result<Option<Vec<u8>>>;
}

impl Transport for Endpoint {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        Endpoint::send(self, frame.to_vec());
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(Endpoint::recv(self))
    }
}

impl<T: Transport + ?Sized> Transport for Box<T> {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        (**self).send(frame)
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        (**self).recv()
    }
}

impl<T: Transport + ?Sized> Transport for &mut T {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        (**self).send(frame)
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        (**self).recv()
    }
}

/// A connected `(client, server)` pair of boxed transports, as handed
/// out by a [`WireFactory`].
pub type WirePair = (Box<dyn Transport>, Box<dyn Transport>);

/// Produces connected client/server transport pairs on demand — the
/// seam that lets the chaos and failover harnesses run the *same*
/// seeded cases over the in-process duplex or a real loopback socket.
/// After a crash the harness asks for a fresh pair (a crash kills the
/// connection along with the process).
pub trait WireFactory {
    /// A fresh connected `(client, server)` pair.
    fn pair(&mut self) -> Result<WirePair, String>;

    /// Per-command retry budget appropriate for this wire. Socket
    /// transports pay real read-timeout latency per silent attempt and
    /// may need more patience than the in-process default.
    fn max_attempts(&self) -> u32 {
        32
    }
}

/// The in-process duplex factory (the default everywhere).
#[derive(Debug, Default)]
pub struct DuplexFactory;

impl WireFactory for DuplexFactory {
    fn pair(&mut self) -> Result<WirePair, String> {
        let (c, s) = crate::proto::duplex();
        Ok((Box::new(c), Box::new(s)))
    }
}

/// Loopback-TCP pairs from one bound listener. Single-threaded by
/// design: `connect` completes through the kernel's accept backlog, so
/// the matching `accept` can happen afterwards on the same thread.
/// Both ends get a short read timeout so lockstep pumping sees "no
/// frame yet" instead of blocking forever.
#[derive(Debug)]
pub struct TcpLoopbackFactory {
    listener: Listener,
    addr: ListenAddr,
    read_timeout: Duration,
}

impl TcpLoopbackFactory {
    /// Bind a fresh loopback listener on a kernel-picked port.
    pub fn new() -> io::Result<TcpLoopbackFactory> {
        let listener = Listener::bind(&ListenAddr::Tcp("127.0.0.1:0".into()))?;
        let addr = listener.local_addr()?;
        Ok(TcpLoopbackFactory {
            listener,
            addr,
            read_timeout: Duration::from_millis(2),
        })
    }
}

impl WireFactory for TcpLoopbackFactory {
    fn pair(&mut self) -> Result<WirePair, String> {
        let client = connect(&self.addr, Some(self.read_timeout)).map_err(|e| e.to_string())?;
        let conn = self
            .listener
            .accept()
            .map_err(|e| e.to_string())?
            .ok_or("nobody connected")?;
        conn.set_read_timeout(Some(self.read_timeout))
            .map_err(|e| e.to_string())?;
        Ok((Box::new(client), Box::new(StreamTransport::new(conn))))
    }

    fn max_attempts(&self) -> u32 {
        // Loopback rarely needs more than one extra attempt, but a
        // loaded machine can outlast the 2ms read timeout many times.
        256
    }
}

fn fatal(err: FrameError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err.to_string())
}

/// Incremental frame reassembly over a byte stream. Shared by every
/// stream-shaped transport; also directly testable against scripted
/// byte arrivals (the fuzz suite splits frames at every boundary).
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// Fresh empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Append newly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet cut into a frame.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Discard everything buffered — what a reconnect after an abrupt
    /// reset does: a partial frame whose tail died with the old
    /// connection must not desynchronise the new one.
    pub fn reset(&mut self) {
        self.buf.clear();
    }

    /// Try to cut one whole frame off the front of the buffer.
    /// `Ok(None)` = need more bytes; `Err` = the stream is not speaking
    /// this protocol (desynchronised; the connection must be dropped).
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.buf.len() < HEADER_LEN {
            // Partial header: reject garbage as early as the bytes
            // allow, so a desynchronised stream fails fast.
            if !self.buf.is_empty()
                && self.buf[0..self.buf.len().min(2)] != MAGIC[0..self.buf.len().min(2)]
            {
                return Err(fatal(FrameError::BadMagic));
            }
            return Ok(None);
        }
        if self.buf[0..2] != MAGIC {
            return Err(fatal(FrameError::BadMagic));
        }
        if self.buf[2] != VERSION {
            return Err(fatal(FrameError::BadVersion(self.buf[2])));
        }
        // A full header is present here, but stay connection-fatal
        // rather than panicking if the hint ever disagrees: this runs
        // on reader threads fed by remote bytes.
        let Some(total) = frame_len_hint(&self.buf) else {
            return Err(fatal(FrameError::Truncated));
        };
        if total > HEADER_LEN + MAX_FRAME_LEN + 4 {
            return Err(fatal(FrameError::Truncated));
        }
        if self.buf.len() < total {
            return Ok(None);
        }
        let frame: Vec<u8> = self.buf.drain(..total).collect();
        Ok(Some(frame))
    }
}

/// A [`Transport`] over any byte stream (TCP socket, Unix socket, or a
/// scripted mock in tests).
#[derive(Debug)]
pub struct StreamTransport<S: Read + Write> {
    stream: S,
    frames: FrameBuffer,
    chunk: [u8; 8192],
}

impl<S: Read + Write> StreamTransport<S> {
    /// Wrap a connected stream.
    pub fn new(stream: S) -> StreamTransport<S> {
        StreamTransport {
            stream,
            frames: FrameBuffer::new(),
            chunk: [0u8; 8192],
        }
    }

    /// The underlying stream (to set socket options).
    pub fn stream(&self) -> &S {
        &self.stream
    }
}

impl<S: Read + Write> Transport for StreamTransport<S> {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.stream.write_all(frame)?;
        self.stream.flush()
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        loop {
            if let Some(frame) = self.frames.next_frame()? {
                return Ok(Some(frame));
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed the connection",
                    ))
                }
                Ok(n) => self.frames.extend(&self.chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// A listen address: `tcp:HOST:PORT` (bare `HOST:PORT` also accepted)
/// or `uds:/path/to.sock`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ListenAddr {
    /// TCP on a socket address (`tcp:127.0.0.1:7878`; port 0 = pick).
    Tcp(String),
    /// Unix-domain socket at a filesystem path (`uds:/tmp/sr.sock`).
    Unix(PathBuf),
}

impl ListenAddr {
    /// Parse the CLI/spec form.
    pub fn parse(spec: &str) -> Result<ListenAddr, String> {
        if let Some(path) = spec.strip_prefix("uds:") {
            if path.is_empty() {
                return Err("empty unix socket path".into());
            }
            return Ok(ListenAddr::Unix(PathBuf::from(path)));
        }
        let hostport = spec.strip_prefix("tcp:").unwrap_or(spec);
        if hostport.is_empty() {
            return Err("empty listen address".into());
        }
        Ok(ListenAddr::Tcp(hostport.to_string()))
    }
}

impl std::fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListenAddr::Tcp(hp) => write!(f, "tcp:{hp}"),
            ListenAddr::Unix(p) => write!(f, "uds:{}", p.display()),
        }
    }
}

/// One accepted or dialled connection, ready to be framed.
#[derive(Debug)]
pub enum Conn {
    /// A TCP stream.
    Tcp(TcpStream),
    /// A Unix-domain stream.
    Unix(UnixStream),
}

impl Conn {
    /// Bound read timeout (None = block forever). A timeout makes
    /// [`Transport::recv`] return `Ok(None)` instead of blocking.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            Conn::Unix(s) => s.set_read_timeout(t),
        }
    }

    /// Disable Nagle on TCP (request/response traffic hates it); no-op
    /// on Unix sockets.
    pub fn set_nodelay(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nodelay(true),
            Conn::Unix(_) => Ok(()),
        }
    }

    /// An independent handle onto the same socket, so one thread can
    /// read while another writes.
    pub fn try_clone(&self) -> io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    /// Shut down both directions (unblocks a peer's reader).
    pub fn shutdown(&self) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Conn::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A bound listening socket for either address family.
#[derive(Debug)]
pub enum Listener {
    /// Bound TCP listener.
    Tcp(TcpListener),
    /// Bound Unix listener, remembering the path so it can be unlinked.
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Bind the address (for `uds:` a stale socket file is removed
    /// first — only one process may own the path).
    pub fn bind(addr: &ListenAddr) -> io::Result<Listener> {
        match addr {
            ListenAddr::Tcp(hp) => Ok(Listener::Tcp(TcpListener::bind(resolve(hp)?)?)),
            ListenAddr::Unix(path) => {
                if path.exists() {
                    let _ = std::fs::remove_file(path);
                }
                Ok(Listener::Unix(UnixListener::bind(path)?, path.clone()))
            }
        }
    }

    /// The address clients should dial (with the kernel-picked port
    /// resolved for `tcp:…:0` binds).
    pub fn local_addr(&self) -> io::Result<ListenAddr> {
        match self {
            Listener::Tcp(l) => Ok(ListenAddr::Tcp(l.local_addr()?.to_string())),
            Listener::Unix(_, path) => Ok(ListenAddr::Unix(path.clone())),
        }
    }

    /// Accept one connection (blocking, unless the listener was put in
    /// non-blocking mode — then `Ok(None)` when nobody is waiting).
    pub fn accept(&self) -> io::Result<Option<Conn>> {
        let conn = match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => Conn::Tcp(s),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e),
            },
            Listener::Unix(l, _) => match l.accept() {
                Ok((s, _)) => Conn::Unix(s),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e),
            },
        };
        conn.set_nodelay()?;
        Ok(Some(conn))
    }

    /// Switch between blocking and polling accepts.
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            Listener::Unix(l, _) => l.set_nonblocking(nb),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn resolve(hostport: &str) -> io::Result<SocketAddr> {
    hostport
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing"))
}

/// Dial a server and return the framed connection. `read_timeout`
/// bounds how long [`Transport::recv`] blocks (None = forever).
pub fn connect(
    addr: &ListenAddr,
    read_timeout: Option<Duration>,
) -> io::Result<StreamTransport<Conn>> {
    let conn = match addr {
        ListenAddr::Tcp(hp) => Conn::Tcp(TcpStream::connect(resolve(hp)?)?),
        ListenAddr::Unix(path) => Conn::Unix(UnixStream::connect(path)?),
    };
    conn.set_nodelay()?;
    conn.set_read_timeout(read_timeout)?;
    Ok(StreamTransport::new(conn))
}

/// What a [`NemesisTransport`] did to the frames it carried.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NemesisCounts {
    /// Frames dropped outright.
    pub dropped: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames held back (and thus possibly reordered).
    pub delayed: u64,
    /// Frames delivered as byte-granular chunks.
    pub split: u64,
    /// Abrupt connection resets (frame plus all in-flight data lost).
    pub resets: u64,
    /// Frames swallowed by an active partition window.
    pub severed: u64,
}

impl NemesisCounts {
    /// Did the nemesis interfere at all?
    pub fn any(&self) -> bool {
        *self != NemesisCounts::default()
    }

    /// Every fault injected, of any kind.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed + self.split + self.resets + self.severed
    }

    /// Fold another edge's counts into this one.
    pub fn absorb(&mut self, other: NemesisCounts) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.delayed += other.delayed;
        self.split += other.split;
        self.resets += other.resets;
        self.severed += other.severed;
    }
}

/// A shared fault-count accumulator: every [`NemesisTransport`] built
/// [`with_sink`](NemesisTransport::with_sink) folds its counts in when
/// dropped, so a sweep can prove its faults actually fired even though
/// the transports themselves are moved into clients and servers and
/// consumed there. Read [`totals`](NemesisSink::totals) only after the
/// transports are gone (a run's locals drop when it returns).
#[derive(Debug, Default)]
pub struct NemesisSink {
    totals: Mutex<NemesisCounts>,
}

impl NemesisSink {
    /// Everything nemesis transports feeding this sink did before they
    /// were dropped.
    pub fn totals(&self) -> NemesisCounts {
        *self.totals.lock().unwrap()
    }
}

/// A [`Transport`] decorated with the full seeded network nemesis:
/// frame drops, delays (reorders), duplicates, byte-granular partial
/// writes, abrupt resets, and directed/symmetric partition windows —
/// every decision a pure function of `(plan seed, edge, frame index)`
/// via [`NemesisPlan`], so a faulty run replays byte-identically from
/// its seed regardless of thread interleaving.
///
/// Both ends of a link must be wrapped (see [`NemesisFactory`]): split
/// frames travel as raw byte chunks through the inner transport and
/// are reassembled by the peer's [`FrameBuffer`]. Over a byte-stream
/// transport the chunks concatenate natively, so a nemesis-wrapped
/// client also composes with an unwrapped socket server.
///
/// Every plan has a fault **horizon**: past it the edge is fault-free
/// and held frames flush as the endpoint keeps pumping, which is what
/// lets unmodified harnesses drive a faulted run to the same final
/// probes as a clean one.
#[derive(Debug)]
pub struct NemesisTransport<T: Transport> {
    inner: T,
    plan: NemesisPlan,
    edge: u64,
    /// Frames offered to `send` so far — the per-edge fate index.
    sent: u64,
    /// Logical clock advanced by every send/recv call; held frames
    /// release when it passes their slot.
    ticks: u64,
    /// Held frames: `(release_tick, fate_index, bytes)`.
    held: Vec<(u64, u64, Vec<u8>)>,
    /// Reassembles byte chunks produced by the peer's nemesis.
    frames: FrameBuffer,
    counts: NemesisCounts,
    sink: Option<Arc<NemesisSink>>,
}

impl<T: Transport> NemesisTransport<T> {
    /// Wrap `inner` as direction `edge` (directions `2k`/`2k+1` form
    /// link pair `k` for partition purposes) under `plan`.
    pub fn new(inner: T, plan: NemesisPlan, edge: u64) -> NemesisTransport<T> {
        NemesisTransport {
            inner,
            plan,
            edge,
            sent: 0,
            ticks: 0,
            held: Vec::new(),
            frames: FrameBuffer::new(),
            counts: NemesisCounts::default(),
            sink: None,
        }
    }

    /// [`NemesisTransport::new`], folding this edge's final counts into
    /// `sink` when the transport is dropped.
    pub fn with_sink(
        inner: T,
        plan: NemesisPlan,
        edge: u64,
        sink: Arc<NemesisSink>,
    ) -> NemesisTransport<T> {
        let mut t = NemesisTransport::new(inner, plan, edge);
        t.sink = Some(sink);
        t
    }

    /// What the nemesis has done on this edge so far.
    pub fn counts(&self) -> NemesisCounts {
        self.counts
    }

    /// Stop injecting and flush everything held — explicit heal for
    /// tests; harnesses normally rely on the plan's horizon instead.
    pub fn heal(&mut self) -> io::Result<()> {
        self.plan.horizon = 0;
        let held = std::mem::take(&mut self.held);
        for (_, idx, bytes) in held {
            self.put(&bytes, idx)?;
        }
        Ok(())
    }

    /// Deliver `bytes` toward the peer, possibly as byte-granular
    /// chunks (seeded boundaries; all chunks leave back-to-back so a
    /// frame is never stranded half-sent).
    fn put(&mut self, bytes: &[u8], index: u64) -> io::Result<()> {
        if !self.plan.splits(self.edge, index) || bytes.len() < 2 {
            return self.inner.send(bytes);
        }
        self.counts.split += 1;
        let chunks = 2 + mix(self.plan.seed, 0x5B17 ^ self.edge, index) as usize % 3;
        let mut rest = bytes;
        for c in 0..chunks {
            if rest.len() < 2 || c == chunks - 1 {
                break;
            }
            let cut = 1 + mix(self.plan.seed, 0x5B18 ^ self.edge, index ^ (c as u64) << 32)
                as usize
                % (rest.len() - 1);
            let (head, tail) = rest.split_at(cut);
            self.inner.send(head)?;
            rest = tail;
        }
        self.inner.send(rest)
    }

    /// Release every held frame whose slot has passed, oldest slot
    /// first (ties by original send order).
    fn flush_due(&mut self) -> io::Result<()> {
        if self.held.is_empty() {
            return Ok(());
        }
        self.held.sort_by_key(|&(release, idx, _)| (release, idx));
        while let Some(&(release, _, _)) = self.held.first() {
            if release > self.ticks {
                break;
            }
            let (_, idx, bytes) = self.held.remove(0);
            self.put(&bytes, idx)?;
        }
        Ok(())
    }
}

impl<T: Transport> Drop for NemesisTransport<T> {
    fn drop(&mut self) {
        if let Some(sink) = &self.sink {
            sink.totals.lock().unwrap().absorb(self.counts);
        }
    }
}

impl<T: Transport> Transport for NemesisTransport<T> {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let i = self.sent;
        self.sent += 1;
        self.ticks += 1;
        if self.plan.resets(self.edge, i) {
            // Abrupt reset: the frame and everything in flight on this
            // direction is lost; the link itself comes back (retries
            // model the reconnect).
            self.counts.resets += 1;
            self.held.clear();
            return Ok(());
        }
        if self.plan.severed(self.edge, i) {
            self.counts.severed += 1;
        } else if self.plan.drops(self.edge, i) {
            self.counts.dropped += 1;
        } else {
            let delay = self.plan.delay(self.edge, i);
            if delay > 0 {
                self.counts.delayed += 1;
                self.held.push((self.ticks + delay, i, frame.to_vec()));
            } else {
                self.put(frame, i)?;
            }
            if self.plan.duplicates(self.edge, i) {
                self.counts.duplicated += 1;
                self.held.push((self.ticks + delay + 1, i, frame.to_vec()));
            }
        }
        self.flush_due()
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.ticks += 1;
        self.flush_due()?;
        loop {
            if let Some(frame) = self.frames.next_frame()? {
                return Ok(Some(frame));
            }
            match self.inner.recv()? {
                Some(chunk) => self.frames.extend(&chunk),
                None => return Ok(None),
            }
        }
    }
}

/// Wraps any [`WireFactory`] so every pair it hands out carries the
/// seeded nemesis on both directions — the drop-in way to run the
/// chaos, failover, and sharded harnesses under network faults with no
/// harness changes. Pair `p` gets directions `2p` (client→server) and
/// `2p + 1` (server→client).
#[derive(Debug)]
pub struct NemesisFactory<F: WireFactory> {
    inner: F,
    plan: NemesisPlan,
    pairs: u64,
    sink: Arc<NemesisSink>,
}

impl NemesisFactory<DuplexFactory> {
    /// Nemesis over the in-process duplex, with the standard plan
    /// derived from `seed`.
    pub fn duplex(seed: u64) -> NemesisFactory<DuplexFactory> {
        NemesisFactory::new(DuplexFactory, NemesisPlan::from_seed(seed))
    }
}

impl<F: WireFactory> NemesisFactory<F> {
    /// Wrap `inner` with `plan`.
    pub fn new(inner: F, plan: NemesisPlan) -> NemesisFactory<F> {
        NemesisFactory {
            inner,
            plan,
            pairs: 0,
            sink: Arc::new(NemesisSink::default()),
        }
    }

    /// Total faults injected across every edge this factory handed
    /// out. Edges flush their counts on drop, so read this only after
    /// the run's transports have been torn down.
    pub fn totals(&self) -> NemesisCounts {
        self.sink.totals()
    }
}

impl<F: WireFactory> WireFactory for NemesisFactory<F> {
    fn pair(&mut self) -> Result<WirePair, String> {
        let (c, s) = self.inner.pair()?;
        let p = self.pairs;
        self.pairs += 1;
        Ok((
            Box::new(NemesisTransport::with_sink(
                c,
                self.plan.clone(),
                2 * p,
                Arc::clone(&self.sink),
            )),
            Box::new(NemesisTransport::with_sink(
                s,
                self.plan.clone(),
                2 * p + 1,
                Arc::clone(&self.sink),
            )),
        ))
    }

    fn max_attempts(&self) -> u32 {
        // A partition window can swallow a whole backoff ladder of
        // retries; give clients enough patience to outlast the plan's
        // fault horizon.
        self.inner.max_attempts().max(1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_frame, duplex, heartbeat_frame, request_frame, Command};
    use std::net::TcpListener;

    #[test]
    fn endpoint_satisfies_the_transport_trait() {
        let (mut a, mut b) = duplex();
        let frame = request_frame(1, &Command::Poll);
        Transport::send(&mut a, &frame).unwrap();
        assert_eq!(Transport::recv(&mut b).unwrap(), Some(frame));
        assert_eq!(Transport::recv(&mut b).unwrap(), None);
    }

    #[test]
    fn frame_buffer_reassembles_at_any_split() {
        let frame = request_frame(42, &Command::Poll);
        for cut in 0..=frame.len() {
            let mut fb = FrameBuffer::new();
            fb.extend(&frame[..cut]);
            if cut < frame.len() {
                assert_eq!(fb.next_frame().unwrap(), None, "cut at {cut}");
            }
            fb.extend(&frame[cut..]);
            assert_eq!(
                fb.next_frame().unwrap(),
                Some(frame.clone()),
                "cut at {cut}"
            );
            assert_eq!(fb.pending(), 0);
        }
    }

    #[test]
    fn frame_buffer_rejects_garbage_and_giant_lengths() {
        let mut fb = FrameBuffer::new();
        fb.extend(b"GET / HTTP/1.1\r\n");
        assert!(fb.next_frame().is_err(), "not our magic");

        // A sound header whose length prefix claims more than the cap:
        // must error before buffering gigabytes.
        let mut hdr = Vec::new();
        hdr.extend_from_slice(&MAGIC);
        hdr.push(VERSION);
        hdr.push(0);
        hdr.extend_from_slice(&7u64.to_le_bytes());
        hdr.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut fb = FrameBuffer::new();
        fb.extend(&hdr);
        assert!(fb.next_frame().is_err(), "oversized length accepted");

        // One wrong byte in the magic fails on the very first byte.
        let mut fb = FrameBuffer::new();
        fb.extend(b"X");
        assert!(fb.next_frame().is_err());
    }

    #[test]
    fn frame_buffer_splits_every_frame_kind_at_every_byte() {
        // A mixed stream — requests of different sizes, a liveness
        // heartbeat in the middle — cut at every single byte boundary.
        // Each split must decode to exactly the whole-frame sequence:
        // the nemesis produces arbitrary chunkings of exactly this
        // stream, so any boundary sensitivity here is a live bug there.
        let frames = [
            request_frame(1, &Command::Poll),
            heartbeat_frame(7),
            request_frame(2, &Command::Verdicts),
            heartbeat_frame(u64::MAX),
            request_frame(3, &Command::Stats),
        ];
        let stream: Vec<u8> = frames.iter().flatten().copied().collect();
        let drain = |fb: &mut FrameBuffer, out: &mut Vec<Vec<u8>>| {
            while let Some(f) = fb.next_frame().unwrap() {
                out.push(f);
            }
        };
        for cut in 0..=stream.len() {
            let mut fb = FrameBuffer::new();
            let mut got = Vec::new();
            fb.extend(&stream[..cut]);
            drain(&mut fb, &mut got);
            fb.extend(&stream[cut..]);
            drain(&mut fb, &mut got);
            assert_eq!(got, frames.to_vec(), "cut at {cut}");
            assert_eq!(fb.pending(), 0, "cut at {cut}");
        }
    }

    #[test]
    fn frame_buffer_reset_discards_partial_frames_cleanly() {
        let frame = request_frame(5, &Command::Poll);
        // A reconnect after losing the tail of a frame: reset() must
        // leave the buffer able to decode fresh frames at any loss
        // point, including mid-header and mid-crc.
        for cut in 1..frame.len() {
            let mut fb = FrameBuffer::new();
            fb.extend(&frame[..cut]);
            fb.reset();
            assert_eq!(fb.pending(), 0, "cut at {cut}");
            fb.extend(&frame);
            assert_eq!(
                fb.next_frame().unwrap(),
                Some(frame.clone()),
                "cut at {cut}"
            );
        }
        // Without the reset the orphaned tail desynchronises the
        // stream: pick a loss point whose continuation is not magic.
        let cut = (1..frame.len())
            .find(|&c| frame[c] != MAGIC[0])
            .expect("some tail byte differs from magic");
        let mut fb = FrameBuffer::new();
        fb.extend(&frame[cut..]);
        fb.extend(&frame);
        assert!(fb.next_frame().is_err(), "orphan tail must desynchronise");
    }

    #[test]
    fn frame_buffer_decodes_interleaved_duplicates_in_arrival_order() {
        let a = request_frame(8, &Command::Poll);
        let b = heartbeat_frame(3);
        let stream: Vec<u8> = [&a, &a, &b, &a]
            .iter()
            .flat_map(|f| f.iter())
            .copied()
            .collect();
        // Duplicated frames arriving interleaved with others — and cut
        // anywhere — come out exactly as sent, duplicates included (the
        // request-id layer dedupes; the framing layer must not).
        for cut in 0..=stream.len() {
            let mut fb = FrameBuffer::new();
            let mut got = Vec::new();
            for part in [&stream[..cut], &stream[cut..]] {
                fb.extend(part);
                while let Some(f) = fb.next_frame().unwrap() {
                    got.push(f);
                }
            }
            assert_eq!(got, vec![a.clone(), a.clone(), b.clone(), a.clone()]);
        }
    }

    /// Drive one nemesis link (client edge 0 → server edge 1) to
    /// quiescence: send every frame, then keep pumping both ends so
    /// held frames release, collecting everything the server decodes.
    fn pump_nemesis_link(seed: u64, frames: &[Vec<u8>]) -> (Vec<Vec<u8>>, NemesisCounts) {
        let (c, s) = duplex();
        let plan = NemesisPlan::from_seed(seed);
        let mut nc = NemesisTransport::new(c, plan.clone(), 0);
        let mut ns = NemesisTransport::new(s, plan, 1);
        let mut got = Vec::new();
        for f in frames {
            nc.send(f).unwrap();
            while let Some(f) = ns.recv().unwrap() {
                got.push(f);
            }
        }
        // Quiesce: ticks only advance on send/recv, so keep pumping
        // until both directions have drained their held queues.
        for _ in 0..4 * frames.len() + 64 {
            nc.recv().unwrap();
            while let Some(f) = ns.recv().unwrap() {
                got.push(f);
            }
        }
        (got, nc.counts())
    }

    #[test]
    fn nemesis_link_is_deterministic_and_delivers_past_the_horizon() {
        let seed = 0x4E3E_5157;
        let plan = NemesisPlan::from_seed(seed);
        let frames: Vec<Vec<u8>> = (0..plan.horizon + 32)
            .map(|i| request_frame(i, &Command::Poll))
            .collect();
        let (got1, counts1) = pump_nemesis_link(seed, &frames);
        let (got2, counts2) = pump_nemesis_link(seed, &frames);
        // Byte-identical replay from the seed, independent of wall time.
        assert_eq!(got1, got2);
        assert_eq!(counts1, counts2);
        assert!(counts1.any(), "plan injected nothing: {counts1:?}");
        // Nothing invented, nothing corrupted: every delivered frame is
        // one of the sent frames.
        for f in &got1 {
            assert!(frames.contains(f), "corrupted frame came out");
        }
        // Every frame past the fault horizon arrives: the fault-free
        // tail is what lets harnesses drive a faulted run to the same
        // final probes as a clean one.
        for f in &frames[plan.horizon as usize..] {
            assert!(got1.contains(f), "post-horizon frame lost");
        }
    }

    #[test]
    fn nemesis_heal_flushes_held_frames() {
        let (c, s) = duplex();
        // A huge max_delay: the first send is held far in the future,
        // so nothing arrives until the explicit heal flushes it.
        let mut plan = NemesisPlan::quiet(1);
        plan.max_delay = 1 << 40;
        plan.horizon = 1 << 20;
        let mut nc = NemesisTransport::new(c, plan, 0);
        let mut ns = NemesisTransport::new(s, NemesisPlan::quiet(0), 1);
        let frame = request_frame(11, &Command::Poll);
        nc.send(&frame).unwrap();
        assert_eq!(ns.recv().unwrap(), None, "delayed frame leaked early");
        nc.heal().unwrap();
        assert_eq!(ns.recv().unwrap(), Some(frame));
    }

    #[test]
    fn tcp_round_trip_preserves_frame_bytes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let frame = request_frame(9, &Command::Verdicts);
        let sent = frame.clone();
        let join = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            let mut t = StreamTransport::new(sock);
            let got = t.recv().unwrap().unwrap();
            t.send(&got).unwrap(); // echo
        });
        let mut t = StreamTransport::new(TcpStream::connect(addr).unwrap());
        t.send(&frame).unwrap();
        let echoed = t.recv().unwrap().unwrap();
        join.join().unwrap();
        assert_eq!(echoed, sent);
        let decoded = decode_frame(&echoed).unwrap();
        assert_eq!(decoded.req, 9);
    }

    #[test]
    fn listen_addr_parses_both_families() {
        assert_eq!(
            ListenAddr::parse("tcp:127.0.0.1:7878").unwrap(),
            ListenAddr::Tcp("127.0.0.1:7878".into())
        );
        assert_eq!(
            ListenAddr::parse("127.0.0.1:0").unwrap(),
            ListenAddr::Tcp("127.0.0.1:0".into())
        );
        assert_eq!(
            ListenAddr::parse("uds:/tmp/x.sock").unwrap(),
            ListenAddr::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert!(ListenAddr::parse("uds:").is_err());
        assert!(ListenAddr::parse("").is_err());
    }

    #[test]
    fn uds_listener_binds_accepts_and_cleans_up() {
        let path = std::env::temp_dir().join(format!("synchrel-t-{}.sock", std::process::id()));
        let addr = ListenAddr::Unix(path.clone());
        let listener = Listener::bind(&addr).unwrap();
        let dial = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let mut t = connect(&dial, None).unwrap();
            t.send(&request_frame(1, &Command::Poll)).unwrap();
        });
        let conn = listener.accept().unwrap().unwrap();
        let mut t = StreamTransport::new(conn);
        let frame = t.recv().unwrap().unwrap();
        join.join().unwrap();
        assert_eq!(decode_frame(&frame).unwrap().req, 1);
        drop(t);
        drop(listener);
        assert!(!path.exists(), "socket file not unlinked on drop");
    }
}
