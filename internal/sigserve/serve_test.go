package sigserve

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rev/internal/core"
	"rev/internal/sigtable"
	"rev/internal/telemetry"
	"rev/internal/workload"
)

// fixture caches one prepared tiny protected workload for the whole test
// binary: program builder, run config, and built tables.
type fixtureData struct {
	prep *core.Prepared
	rc   core.RunConfig
	prof workload.Profile
	err  error
}

var (
	fixtureOnce sync.Once
	fx          fixtureData
)

func fixture(t *testing.T) *fixtureData {
	t.Helper()
	fixtureOnce.Do(func() {
		p, err := workload.ByName("bzip2")
		if err != nil {
			fx.err = err
			return
		}
		fx.prof = p.Scaled(0.03)
		rc := core.DefaultRunConfig()
		rc.MaxInstrs = 50_000
		cfg := core.DefaultConfig()
		cfg.Format = sigtable.Normal
		rc.REV = &cfg
		fx.rc = rc
		fx.prep, fx.err = core.Prepare(fx.prof.Builder(), rc)
	})
	if fx.err != nil {
		t.Fatal(fx.err)
	}
	return &fx
}

// startServer serves the fixture's tables under "default" on loopback
// and registers cleanup.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	f := fixture(t)
	srv := NewServer()
	for _, st := range f.prep.Tables {
		srv.Publish("default", st.Module, *st.Table, st.Snap)
	}
	return serveOn(t, srv)
}

func serveOn(t *testing.T, srv *Server) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return srv, ln.Addr().String()
}

func newTestClient(t *testing.T, cfg ClientConfig) *Client {
	t.Helper()
	if cfg.Retries == 0 {
		cfg.Retries = 1
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = time.Millisecond
	}
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerHandshakeAndCatalogue(t *testing.T) {
	_, addr := startServer(t)
	c := newTestClient(t, ClientConfig{Addr: addr})
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	mods, err := c.Modules()
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != len(fixture(t).prep.Tables) {
		t.Fatalf("catalogue lists %d modules, want %d", len(mods), len(fixture(t).prep.Tables))
	}
	want := *fixture(t).prep.Tables[0].Table
	if mods[0].Table != want {
		t.Fatalf("catalogue metadata %+v, want %+v", mods[0].Table, want)
	}
}

func TestServerRejectsUnknownTenantAndModule(t *testing.T) {
	_, addr := startServer(t)

	c := newTestClient(t, ClientConfig{Addr: addr, Tenant: "nobody"})
	var se *ServerError
	if err := c.Ping(); !errors.As(err, &se) || se.Code != CodeUnknownTenant {
		t.Fatalf("unknown tenant: got %v, want CodeUnknownTenant", err)
	}

	c2 := newTestClient(t, ClientConfig{Addr: addr})
	if _, _, _, err := c2.FetchSnapshot("no-such-module"); !errors.As(err, &se) || se.Code != CodeUnknownModule {
		t.Fatalf("unknown module: got %v, want CodeUnknownModule", err)
	}
	// A definitive server rejection must NOT read as a transport fault.
	if errors.Is(se, sigtable.ErrUnavailable) {
		t.Fatal("ServerError wraps ErrUnavailable; rejections must stay distinct from outages")
	}
}

func TestServerVersionNegotiation(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Offer a future-only version range: the server must answer with a
	// CodeBadVersion error naming its own version.
	hello := helloMsg{MinVersion: 9, MaxVersion: 12, Tenant: "default"}
	if err := WriteFrame(conn, Frame{Version: 9, Type: MsgHello, ReqID: 1, Payload: hello.encode()}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != MsgError {
		t.Fatalf("got %#x, want MsgError", uint8(f.Type))
	}
	e, err := decodeError(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != CodeBadVersion || !strings.Contains(e.Detail, fmt.Sprintf("versions [%d,%d]", MinSupported, Version)) {
		t.Fatalf("got %+v, want CodeBadVersion naming the server's version range", e)
	}
}

// TestSnapshotFetchMatchesLocal proves a fetched snapshot answers
// lookups identically to the server-side original.
func TestSnapshotFetchMatchesLocal(t *testing.T) {
	f := fixture(t)
	_, addr := startServer(t)
	c := newTestClient(t, ClientConfig{Addr: addr})
	st := f.prep.Tables[0]
	snap, tbl, epoch, err := c.FetchSnapshot(st.Module)
	if err != nil {
		t.Fatal(err)
	}
	if tbl != *st.Table {
		t.Fatalf("metadata %+v, want %+v", tbl, *st.Table)
	}
	if epoch == 0 {
		t.Fatal("publish epoch 0")
	}
	// Byte-identical record image = identical verdicts everywhere.
	got, want := snap.AppendWire(nil), st.Snap.AppendWire(nil)
	if string(got) != string(want) {
		t.Fatal("fetched snapshot records diverge from the published ones")
	}
}

// TestServerHotSwapDuringConcurrentLookups hammers the server from many
// goroutines while the table is republished under them at a shifted
// base. Every response must be internally consistent with exactly one
// generation: all touched addresses of one reply agree on the base.
func TestServerHotSwapDuringConcurrentLookups(t *testing.T) {
	f := fixture(t)
	st := f.prep.Tables[0]
	const delta = 0x100000
	moved := st.Snap.WithBase(st.Table.Base + delta)
	movedTbl := moved.Meta()

	srv := NewServer()
	srv.Publish("default", st.Module, *st.Table, st.Snap)
	_, addr := serveOn(t, srv)

	// Harvest some known-present queries via the catalogue snapshot.
	c := newTestClient(t, ClientConfig{Addr: addr, LookupMode: true, BatchMax: 8})
	src, err := c.Source(st.Module)
	if err != nil {
		t.Fatal(err)
	}
	base0, base1 := st.Table.Base, st.Table.Base+uint64(delta)

	stop := make(chan struct{})
	var swaps sync.WaitGroup
	swaps.Add(1)
	go func() {
		defer swaps.Done()
		flip := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			if flip {
				srv.Publish("default", st.Module, *st.Table, st.Snap)
			} else {
				srv.Publish("default", st.Module, movedTbl, moved)
			}
			flip = !flip
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			// At least 100 lookups each, and more until the swap loop has
			// published twice: on a loaded host the swap goroutine may not
			// be scheduled before 100 lookups finish.
			for i := 0; i < 100 || (srv.epoch.Load() < 3 && i < 100_000); i++ {
				// A query that misses (wrong sig) still walks the table, so
				// the touched list exposes which generation answered.
				_, touched, err := src.LookupAll(0x1000+8*seed, 1)
				if err != nil && !sigtable.IsMiss(err) {
					t.Errorf("lookup failed: %v", err)
					return
				}
				// The rebased generation lives delta higher; a torn reply
				// would mix addresses from both sides of that boundary.
				allLow, allHigh := true, true
				for _, a := range touched {
					if a >= base1 {
						allLow = false
					} else {
						allHigh = false
					}
				}
				if len(touched) > 0 && !allLow && !allHigh {
					t.Errorf("reply mixed generations: touched %#x (bases %#x / %#x)", touched, base0, base1)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	close(stop)
	swaps.Wait()
	if n := srv.epoch.Load(); n < 3 {
		t.Fatalf("only %d generations published; swap loop never ran under load", n)
	}
}

// TestClientCoalescing fires many goroutines at the same query and
// checks that the in-flight coalescer collapses them to far fewer wire
// requests while every caller gets the same verdict. Run with -race this
// also pins the dispatcher's synchronisation.
func TestClientCoalescing(t *testing.T) {
	f := fixture(t)
	srv := NewServer()
	set := &telemetry.Set{Reg: telemetry.NewRegistry()}
	srv.Instrument(set)
	for _, st := range f.prep.Tables {
		srv.Publish("default", st.Module, *st.Table, st.Snap)
	}
	_, addr := serveOn(t, srv)
	srv.SetDelay(20 * time.Millisecond) // hold the first flight open

	cset := &telemetry.Set{Reg: telemetry.NewRegistry()}
	c := newTestClient(t, ClientConfig{Addr: addr, LookupMode: true, Telemetry: cset})
	src, err := c.Source(f.prep.Tables[0].Module)
	if err != nil {
		t.Fatal(err)
	}

	const N = 32
	var wg sync.WaitGroup
	errs := make([]error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = src.LookupAll(0x4242, 7) // same (missing) query for all
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !sigtable.IsMiss(err) {
			t.Fatalf("caller %d: want ErrMiss, got %v", i, err)
		}
	}
	coalesced := cset.Reg.Counter("sigserve_client_coalesced_total", "").Load()
	if coalesced < N/2 {
		t.Fatalf("only %d/%d lookups coalesced; the singleflight map is not collapsing twins", coalesced, N)
	}
	if notes, ok := src.HealthNote(); ok {
		t.Fatalf("healthy source reported a note: %+v", notes)
	}
}

// TestClientDeadlineExpiry pins the per-request deadline: a server stuck
// longer than RequestTimeout must yield an ErrUnavailable-wrapped error
// in bounded time, not hang.
func TestClientDeadlineExpiry(t *testing.T) {
	srv, addr := startServer(t)
	srv.SetDelay(2 * time.Second)
	c := newTestClient(t, ClientConfig{
		Addr:           addr,
		RequestTimeout: 50 * time.Millisecond,
		Retries:        1,
		BackoffBase:    time.Millisecond,
		BackoffMax:     2 * time.Millisecond,
	})
	start := time.Now()
	err := c.Ping()
	if err == nil {
		t.Fatal("ping succeeded against a stuck server")
	}
	if !errors.Is(err, sigtable.ErrUnavailable) {
		t.Fatalf("want ErrUnavailable wrap, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline did not bound the request: took %v", elapsed)
	}
}

// TestClientBreakerTripsAndRecovers checks the breaker integrates with
// the transport: repeated failures trip it (fail-fast without dialing),
// and a recovered server closes it again via the half-open probe.
func TestClientBreakerTripsAndRecovers(t *testing.T) {
	srv, addr := startServer(t)
	srv.SetDelay(2 * time.Second) // every request times out
	c := newTestClient(t, ClientConfig{
		Addr:             addr,
		RequestTimeout:   30 * time.Millisecond,
		Retries:          1,
		BackoffBase:      time.Millisecond,
		BackoffMax:       2 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
	})
	for i := 0; i < 2; i++ {
		if err := c.Ping(); err == nil {
			t.Fatal("ping succeeded against a stuck server")
		}
	}
	if got := c.BreakerState(); got != BreakerOpen {
		t.Fatalf("breaker %v after threshold failures, want open", got)
	}
	// While open, requests fail instantly without touching the wire.
	start := time.Now()
	if err := c.Ping(); !errors.Is(err, sigtable.ErrUnavailable) {
		t.Fatalf("open-breaker ping: %v", err)
	}
	if time.Since(start) > 20*time.Millisecond {
		t.Fatal("open breaker still paid transport latency")
	}
	// Server recovers; after the cooldown one probe closes the breaker.
	srv.SetDelay(0)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := c.Ping(); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("breaker never recovered: %v", err)
	}
	if got := c.BreakerState(); got != BreakerClosed {
		t.Fatalf("breaker %v after recovery, want closed", got)
	}
}
