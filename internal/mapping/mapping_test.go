package mapping

import (
	"net/netip"
	"testing"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/nameserver"
	"akamaidns/internal/netsim"
	"akamaidns/internal/pubsub"
	"akamaidns/internal/simtime"
)

var (
	nyc = netsim.GeoPoint{Lat: 40.7, Lon: -74}
	lon = netsim.GeoPoint{Lat: 51.5, Lon: -0.1}
	tok = netsim.GeoPoint{Lat: 35.7, Lon: 139.7}
)

func newMapper(t *testing.T) *Mapper {
	t.Helper()
	m := New(nil)
	m.AddEdge("e-nyc", netip.MustParseAddr("198.51.100.1"), nyc, 1)
	m.AddEdge("e-lon", netip.MustParseAddr("198.51.100.2"), lon, 1)
	m.AddEdge("e-tok", netip.MustParseAddr("198.51.100.3"), tok, 1)
	if err := m.BindProperty(dnswire.MustName("www.cdn.test"), "e-nyc", "e-lon", "e-tok"); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSelectNearest(t *testing.T) {
	m := newMapper(t)
	m.SetClientLocation(nameserver.ResolverKey("r-eu"), netsim.GeoPoint{Lat: 48.8, Lon: 2.3}) // Paris
	picks := m.Select(dnswire.MustName("www.cdn.test"), nameserver.ResolverKey("r-eu"))
	if len(picks) != 2 {
		t.Fatalf("picks = %d", len(picks))
	}
	if picks[0].ID != "e-lon" {
		t.Fatalf("nearest = %s, want e-lon", picks[0].ID)
	}
}

func TestSelectSkipsDead(t *testing.T) {
	m := newMapper(t)
	m.SetClientLocation(nameserver.ResolverKey("r-eu"), lon)
	m.SetAlive("e-lon", false)
	picks := m.Select(dnswire.MustName("www.cdn.test"), nameserver.ResolverKey("r-eu"))
	for _, p := range picks {
		if p.ID == "e-lon" {
			t.Fatal("dead edge selected")
		}
	}
	if picks[0].ID != "e-nyc" {
		t.Fatalf("failover pick = %s, want e-nyc", picks[0].ID)
	}
}

func TestSelectLoadShedding(t *testing.T) {
	m := newMapper(t)
	m.SetClientLocation(nameserver.ResolverKey("r-eu"), lon)
	// London overloaded: the mapper prefers NYC despite the distance.
	m.SetLoad("e-lon", 0.99)
	picks := m.Select(dnswire.MustName("www.cdn.test"), nameserver.ResolverKey("r-eu"))
	if picks[0].ID == "e-lon" {
		t.Fatal("overloaded edge still preferred")
	}
}

func TestSelectLoadTradesDistance(t *testing.T) {
	m := newMapper(t)
	// Client in Reykjavik: ~1890 km to London, ~4200 km to NYC.
	m.SetClientLocation(nameserver.ResolverKey("r-is"), netsim.GeoPoint{Lat: 64.1, Lon: -21.9})
	// Moderate load on London (0.3 * 4000 km = 1200 km virtual): still wins.
	m.SetLoad("e-lon", 0.3)
	picks := m.Select(dnswire.MustName("www.cdn.test"), nameserver.ResolverKey("r-is"))
	if picks[0].ID != "e-lon" {
		t.Fatalf("moderately loaded nearest rejected: %s", picks[0].ID)
	}
	// Heavy (but below overload threshold) load flips the preference:
	// 1890 + 0.9*4000 = 5490 km virtual > 4200 km to NYC.
	m.SetLoad("e-lon", 0.9)
	picks = m.Select(dnswire.MustName("www.cdn.test"), nameserver.ResolverKey("r-is"))
	if picks[0].ID == "e-lon" {
		t.Fatal("load penalty did not flip preference")
	}
}

func TestSelectAllOverloadedDegrades(t *testing.T) {
	m := newMapper(t)
	m.SetClientLocation(nameserver.ResolverKey("r-eu"), lon)
	for _, id := range []string{"e-nyc", "e-lon", "e-tok"} {
		m.SetLoad(id, 0.99)
	}
	picks := m.Select(dnswire.MustName("www.cdn.test"), nameserver.ResolverKey("r-eu"))
	if len(picks) == 0 {
		t.Fatal("degraded state returned nothing (should serve overloaded edges)")
	}
}

func TestSelectUnknownProperty(t *testing.T) {
	m := newMapper(t)
	if picks := m.Select(dnswire.MustName("nope.cdn.test"), nameserver.ResolverKey("r-eu")); picks != nil {
		t.Fatal("unknown property returned picks")
	}
}

func TestTailorA(t *testing.T) {
	m := newMapper(t)
	m.SetClientLocation(nameserver.ResolverKey("r-us"), nyc)
	addrs, ttl, ok := m.TailorA(dnswire.MustName("www.cdn.test"), nameserver.ResolverKey("r-us"))
	if !ok || len(addrs) != 2 || ttl != 20 {
		t.Fatalf("TailorA = %v %d %v", addrs, ttl, ok)
	}
	if addrs[0] != netip.MustParseAddr("198.51.100.1") {
		t.Fatalf("nearest addr = %v", addrs[0])
	}
	if _, _, ok := m.TailorA(dnswire.MustName("unbound.test"), nameserver.ResolverKey("r-us")); ok {
		t.Fatal("unbound property tailored")
	}
}

func TestBindUnknownEdge(t *testing.T) {
	m := newMapper(t)
	if err := m.BindProperty(dnswire.MustName("x.test"), "missing"); err == nil {
		t.Fatal("unknown edge accepted")
	}
}

func TestPublishesOnChange(t *testing.T) {
	sched := simtime.NewScheduler()
	bus := pubsub.NewBus(sched)
	var updates []pubsub.Message
	bus.Subscribe(TopicMapping, 100*time.Millisecond, func(_ simtime.Time, m pubsub.Message) {
		updates = append(updates, m)
	})
	m := New(bus)
	m.AddEdge("e1", netip.MustParseAddr("198.51.100.9"), nyc, 1)
	m.SetAlive("e1", false)
	m.SetLoad("e1", 0.5)
	sched.Run()
	if len(updates) != 3 {
		t.Fatalf("updates = %d, want 3", len(updates))
	}
	if m.Version != 3 {
		t.Fatalf("Version = %d", m.Version)
	}
}

func TestCapacityWeighting(t *testing.T) {
	m := New(nil)
	// Two co-located edges; e-big has 4x capacity and wins despite equal
	// distance and load.
	m.AddEdge("e-small", netip.MustParseAddr("198.51.100.1"), nyc, 1)
	m.AddEdge("e-big", netip.MustParseAddr("198.51.100.2"), nyc, 4)
	m.BindProperty(dnswire.MustName("p.test"), "e-small", "e-big")
	m.SetClientLocation(nameserver.ResolverKey("c"), lon)
	m.SetLoad("e-small", 0.3)
	m.SetLoad("e-big", 0.3)
	picks := m.Select(dnswire.MustName("p.test"), nameserver.ResolverKey("c"))
	if picks[0].ID != "e-big" {
		t.Fatalf("capacity weighting pick = %s", picks[0].ID)
	}
}

func TestEdgeAccessorAndProperties(t *testing.T) {
	m := newMapper(t)
	e, ok := m.Edge("e-nyc")
	if !ok || !e.Alive {
		t.Fatal("Edge accessor wrong")
	}
	if _, ok := m.Edge("missing"); ok {
		t.Fatal("missing edge found")
	}
	props := m.Properties()
	if len(props) != 1 || props[0] != dnswire.MustName("www.cdn.test") {
		t.Fatalf("Properties = %v", props)
	}
}
