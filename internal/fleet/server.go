// Package fleet is the horizontal scale-out tier: N matchd replicas
// behind a thin router, with active health checks, hedged retries, and
// pull-based snapshot distribution from a content-addressed blob store.
//
// The pieces, each usable on its own:
//
//   - Server serves the internal wire protocol (internal/fleet/wire)
//     over any net.Listener, turning a serve.Registry into a replica
//     (matchd's -fleet-addr flag).
//   - Router fronts N replicas with HTTP POST /v1/match: consistent
//     hashing for domain-pinned queries, round-robin spread for
//     federated ones, ejection + half-open recovery on health-check
//     failure, and hedged retries after a p95-derived delay.
//   - Store/Puller/Coordinator move snapshots through a SHA-256
//     content-addressed blob directory: a coordinator stages a blob and
//     walks the fleet replica by replica (rolling, bounded version
//     skew), each replica pulling, verifying and canary-validating the
//     bytes through its existing hot-reload path.
package fleet

import (
	"context"
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"websyn/internal/fleet/wire"
	"websyn/internal/match"
	"websyn/internal/serve"
)

// Backend answers routed match items: the one capability a replica
// exposes over the wire protocol. serve.Registry implements it; matchd
// serves a single snapshot as a registry of one domain.
type Backend interface {
	DoItem(it match.Request, domains []string) serve.V1Result
}

// ServerStats is a point-in-time view of a wire server's counters.
type ServerStats struct {
	Conns    uint64 `json:"conns"`
	Requests uint64 `json:"requests"`
	Pings    uint64 `json:"pings"`
	Errors   uint64 `json:"errors"`
}

// Server serves the wire protocol for one backend. Connections are
// handled one frame at a time (the router pools connections and keeps
// at most one request in flight per connection).
type Server struct {
	backend Backend
	logf    func(format string, args ...any)

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	conns_   atomic.Uint64
	requests atomic.Uint64
	pings    atomic.Uint64
	errors   atomic.Uint64
}

// NewServer wraps a backend in a wire-protocol server. logf may be nil
// (log.Printf).
func NewServer(backend Backend, logf func(format string, args ...any)) *Server {
	if logf == nil {
		logf = log.Printf
	}
	return &Server{backend: backend, logf: logf, conns: make(map[net.Conn]struct{})}
}

// Stats returns the server's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Conns:    s.conns_.Load(),
		Requests: s.requests.Load(),
		Pings:    s.pings.Load(),
		Errors:   s.errors.Load(),
	}
}

// Serve accepts connections on ln until ctx is cancelled or the
// listener fails, then closes the listener and every open connection.
// In-flight frames are cut off — wire requests are sub-millisecond and
// the router retries transport failures on another replica, so an
// abrupt close here never surfaces to a client.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	stop := context.AfterFunc(ctx, func() { s.Close() })
	defer stop()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || ctx.Err() != nil {
				return nil
			}
			return err
		}
		s.track(conn, true)
		go s.handleConn(conn)
	}
}

// Close stops the listener and all open connections.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
}

func (s *Server) track(conn net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		if s.closed {
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.conns_.Add(1)
		return
	}
	delete(s.conns, conn)
}

// writeTimeout bounds one response write; a client that stops reading
// must not pin a server goroutine forever.
const writeTimeout = 10 * time.Second

func (s *Server) handleConn(conn net.Conn) {
	defer s.track(conn, false)
	defer conn.Close()

	// Handshake: 4 magic bytes, before any frame.
	var magic [4]byte
	conn.SetReadDeadline(time.Now().Add(writeTimeout))
	if _, err := io.ReadFull(conn, magic[:]); err != nil || string(magic[:]) != wire.Magic {
		s.errors.Add(1)
		return
	}
	conn.SetReadDeadline(time.Time{})

	var buf, out []byte
	for {
		payload, err := wire.ReadFrame(conn, buf)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && ctxNetTimeout(err) == nil {
				s.errors.Add(1)
			}
			return
		}
		buf = payload[:0]
		if len(payload) == 0 {
			s.reply(conn, []byte{wire.OpError}, "empty frame")
			return
		}
		switch payload[0] {
		case wire.OpPing:
			s.pings.Add(1)
			out = append(out[:0], wire.OpPong)
		case wire.OpMatch:
			req, domains, err := wire.DecodeRequest(payload[1:])
			if err != nil {
				s.errors.Add(1)
				s.reply(conn, []byte{wire.OpError}, err.Error())
				return
			}
			s.requests.Add(1)
			res := s.backend.DoItem(req, domains)
			out = append(out[:0], wire.OpResult)
			out = wire.AppendResult(out, wire.Result{Response: res.Response, Cached: res.Cached, Err: res.Error})
		default:
			s.errors.Add(1)
			s.reply(conn, []byte{wire.OpError}, "unknown opcode")
			return
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err := wire.WriteFrame(conn, out); err != nil {
			return
		}
		conn.SetWriteDeadline(time.Time{})
	}
}

// reply best-effort writes an error frame before the connection closes.
func (s *Server) reply(conn net.Conn, op []byte, msg string) {
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_ = wire.WriteFrame(conn, append(op, msg...))
}

// ctxNetTimeout returns err when it is a net timeout, nil otherwise —
// a tiny classifying helper for the accept/read loops.
func ctxNetTimeout(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return err
	}
	return nil
}
