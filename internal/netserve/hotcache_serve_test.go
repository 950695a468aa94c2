package netserve

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/filters"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/zone"
)

// TestHotCacheHitPatchesIDCaseAndRD verifies the packed-response replay
// path end to end: after the first query primes the cache, later queries
// with different IDs, 0x20-randomized qname casing, and different RD bits
// get responses that echo each client's exact message — not the primer's.
// One worker: each query comes from a fresh socket, and the cache a query
// meets is its worker's.
func TestHotCacheHitPatchesIDCaseAndRD(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UDPWorkers = 1
	srv := startServerCfg(t, cfg, nil)
	prime := dnswire.NewQuery(100, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	if _, err := Exchange(srv.UDPAddrActual(), prime, false, time.Second); err != nil {
		t.Fatal(err)
	}
	q := dnswire.NewQuery(0xBEEF, dnswire.MustName("wWw.EX.tEsT"), dnswire.TypeA)
	q.RecursionDesired = true
	resp, err := Exchange(srv.UDPAddrActual(), q, false, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	hits, _, _, _ := srv.hotTotals()
	if hits == 0 {
		t.Fatal("second query did not hit the hot cache")
	}
	if resp.ID != 0xBEEF {
		t.Fatalf("ID = %#x, want 0xBEEF", resp.ID)
	}
	if !resp.RecursionDesired {
		t.Fatal("RD bit not echoed on cache hit")
	}
	if len(resp.Answers) != 1 || resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("resp = %v", resp)
	}
	// The question echoes the client's exact spelling. Unpack canonicalizes
	// names, so check at the wire level instead.
	wire, _ := q.Pack()
	raw := exchangeRaw(t, srv.UDPAddrActual(), wire)
	qname := wire[12 : 12+len("wWw.EX.tEsT")+2]
	if string(raw[12:12+len(qname)]) != string(qname) {
		t.Fatal("0x20 qname casing not preserved on cache hit")
	}
}

// exchangeRaw sends one UDP packet and returns the raw response bytes.
func exchangeRaw(t *testing.T, addr string, wire []byte) []byte {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 2048)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

// TestHotCacheInvalidatedByZoneChange checks the generation plumbing:
// swapping in a zone's next version must flush cached responses, so no
// client sees pre-change data afterwards.
func TestHotCacheInvalidatedByZoneChange(t *testing.T) {
	srv := startServer(t, nil)
	q := dnswire.NewQuery(1, dnswire.MustName("www.ex.test"), dnswire.TypeA)
	resp, err := Exchange(srv.UDPAddrActual(), q, false, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("pre-change answers = %d", len(resp.Answers))
	}
	// Prime the cache, then swap in a version with a second www address at
	// the same serial.
	if _, err := Exchange(srv.UDPAddrActual(), q, false, time.Second); err != nil {
		t.Fatal(err)
	}
	putNext(t, srv.Engine.Store, zone.Delta{ToSerial: 7, Added: []dnswire.RR{&dnswire.A{
		RRHeader: dnswire.RRHeader{Name: dnswire.MustName("www.ex.test"),
			Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 300},
		Addr: netip.MustParseAddr("192.0.2.99"),
	}}})
	resp, err = Exchange(srv.UDPAddrActual(), q, false, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 2 {
		t.Fatalf("post-change answers = %d, want 2 (stale cache?)", len(resp.Answers))
	}
}

// TestConcurrentMixedLoad exercises every serving path with many in-flight
// clients; run under -race it is the data-race probe for the parallel UDP
// workers, the hot cache, and the admission ladder.
func TestConcurrentMixedLoad(t *testing.T) {
	t.Run("hotCacheTruncationInvalidation", func(t *testing.T) {
		t.Parallel()
		cfg := DefaultConfig()
		cfg.UDPWorkers = 4
		srv := startServerCfg(t, cfg, nil)
		store := srv.Engine.Store
		stop := make(chan struct{})
		errs := make(chan error, 16)
		var mutWG sync.WaitGroup
		mutWG.Add(1)
		go func() { // serial swaps force continual cache invalidation
			defer mutWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					cur := store.Get(dnswire.MustName("ex.test"))
					next, err := zone.Apply(cur, zone.Delta{FromSerial: cur.Serial(), ToSerial: cur.Serial() + 1})
					if err != nil {
						errs <- err
						return
					}
					store.Put(next)
					time.Sleep(500 * time.Microsecond)
				}
			}
		}()
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if c%2 == 0 { // cached-answer path
						q := dnswire.NewQuery(uint16(c*100+i), dnswire.MustName("www.ex.test"), dnswire.TypeA)
						resp, err := Exchange(srv.UDPAddrActual(), q, false, 2*time.Second)
						if err != nil {
							errs <- err
							return
						}
						if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
							errs <- fmt.Errorf("www: %v", resp)
							return
						}
					} else { // truncation path
						q := dnswire.NewQuery(uint16(c*100+i), dnswire.MustName("big.ex.test"), dnswire.TypeTXT)
						resp, err := Exchange(srv.UDPAddrActual(), q, false, 2*time.Second)
						if err != nil {
							errs <- err
							return
						}
						if !resp.Truncated {
							errs <- fmt.Errorf("big response not truncated: %v", resp)
							return
						}
					}
				}
			}(c)
		}
		wg.Wait()
		close(stop)
		mutWG.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if srv.Metrics.Truncated.Load() == 0 {
			t.Fatal("no truncations recorded")
		}
	})
	t.Run("cookieRefusalAndRetry", func(t *testing.T) {
		t.Parallel()
		cfg := DefaultConfig()
		cfg.UDPWorkers = 4
		cfg.Cookies, cfg.RequireCookies = true, true
		cfg.CookieSecret = 0xabad1dea
		srv := startServerCfg(t, cfg, nil)
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					ck := dnswire.Cookie{Client: [8]byte{byte(c), byte(i), 3, 4, 5, 6, 7, 8}}
					refusal, err := Exchange(srv.UDPAddrActual(), cookieQuery(uint16(c*50+i), &ck), false, 2*time.Second)
					if err != nil {
						errs <- err
						return
					}
					if refusal.RCode != dnswire.RCodeRefused {
						errs <- fmt.Errorf("cookieless rcode = %v", refusal.RCode)
						return
					}
					issued, ok := dnswire.CookieFromMessage(refusal)
					if !ok || len(issued.Server) == 0 {
						errs <- fmt.Errorf("refusal carried no cookie")
						return
					}
					resp, err := Exchange(srv.UDPAddrActual(), cookieQuery(uint16(c*50+i), &issued), false, 2*time.Second)
					if err != nil {
						errs <- err
						return
					}
					if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
						errs <- fmt.Errorf("cookie retry: %v", resp)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
	t.Run("discard", func(t *testing.T) {
		t.Parallel()
		hostile := filters.NewAllowlist()
		hostile.SetActive(true)
		hostile.Penalty = 1000
		cfg := DefaultConfig()
		cfg.UDPWorkers = 4
		srv := startServerCfg(t, cfg, filters.NewPipeline(hostile))
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					q := dnswire.NewQuery(uint16(c*10+i), dnswire.MustName("www.ex.test"), dnswire.TypeA)
					if _, err := Exchange(srv.UDPAddrActual(), q, false, 100*time.Millisecond); err == nil {
						// A discarded query must time out, never answer.
						panic("discarded query got an answer")
					}
				}
			}(c)
		}
		wg.Wait()
		if srv.Metrics.Discarded.Load() == 0 {
			t.Fatal("no discards recorded")
		}
	})
}

func startServerCfg(t *testing.T, cfg Config, pipe *filters.Pipeline, tune ...func(*Server)) *Server {
	t.Helper()
	store := zone.NewStore()
	store.Put(zone.MustParseMaster(serveZone, dnswire.MustName("ex.test")))
	srv := New(cfg, nameserver.NewEngine(store), pipe)
	for _, f := range tune {
		f(srv)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// hotLen is the number of entries resident across the server's worker caches.
func (s *Server) hotLen() int {
	_, _, _, n := s.hotTotals()
	return n
}
