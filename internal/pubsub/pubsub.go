// Package pubsub models the Communication/Control System of §3.2: generic
// metadata delivery on a publish/subscribe model. The Mapping Intelligence
// and Management Portal publish; nameservers subscribe. Subscriptions carry
// a delivery delay (zone data rides the CDN's HTTP delivery; mapping
// metadata rides the near-real-time overlay multicast), and a subscription
// may be input-delayed by a fixed hour to implement §4.2.3's
// input-delayed nameservers.
package pubsub

import (
	"sync"
	"time"

	"akamaidns/internal/simtime"
)

// Topic names a metadata stream.
type Topic string

// Message is one published metadata item.
type Message struct {
	Topic Topic
	// Seq increases per topic.
	Seq uint64
	// Published is the virtual publish time.
	Published simtime.Time
	Payload   any
}

// Handler consumes delivered messages.
type Handler func(now simtime.Time, msg Message)

// Subscription controls one subscriber's delivery.
type Subscription struct {
	bus     *Bus
	topic   Topic
	handler Handler
	// delay is the base delivery latency.
	delay time.Duration
	// extraDelay is the artificial input delay (1 h for input-delayed
	// nameservers).
	extraDelay time.Duration
	// frozen stops all further deliveries (input-delayed nameservers stop
	// receiving new inputs upon use, §4.2.3).
	frozen bool
	// lost drops deliveries while true (simulates connectivity failure).
	lost      bool
	cancelled bool
	mu        sync.Mutex
}

// Freeze permanently stops deliveries to this subscriber.
func (s *Subscription) Freeze() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frozen = true
}

// Frozen reports whether the subscription is frozen.
func (s *Subscription) Frozen() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frozen
}

// SetLost toggles a connectivity failure: messages published while lost are
// never delivered to this subscriber (they are not replayed on recovery;
// real nameservers catch up via the next full publish).
func (s *Subscription) SetLost(lost bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lost = lost
}

func (s *Subscription) deliverable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.frozen && !s.lost && !s.cancelled
}

// Bus is the metadata delivery fabric.
type Bus struct {
	sched *simtime.Scheduler
	mu    sync.Mutex
	seq   map[Topic]uint64
	subs  map[Topic][]*Subscription
	// Published counts messages per topic; Delivered counts deliveries.
	published uint64
	delivered uint64
}

// NewBus creates a bus bound to the scheduler.
func NewBus(sched *simtime.Scheduler) *Bus {
	return &Bus{sched: sched, seq: make(map[Topic]uint64), subs: make(map[Topic][]*Subscription)}
}

// Subscribe registers a handler with the given delivery delay.
func (b *Bus) Subscribe(topic Topic, delay time.Duration, h Handler) *Subscription {
	sub := &Subscription{bus: b, topic: topic, handler: h, delay: delay}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subs[topic] = append(b.subs[topic], sub)
	return sub
}

// SubscribeInputDelayed registers an input-delayed subscriber: deliveries
// arrive after delay+extra, where extra is the artificial input delay.
func (b *Bus) SubscribeInputDelayed(topic Topic, delay, extra time.Duration, h Handler) *Subscription {
	sub := b.Subscribe(topic, delay, h)
	sub.extraDelay = extra
	return sub
}

// Publish sends a message to all current subscribers of the topic. The
// lost/frozen state is evaluated at *delivery* time: a message in flight to
// a subscriber that freezes before arrival is dropped, mirroring how the
// input-delayed nameservers stop consuming inputs the moment they take
// traffic.
func (b *Bus) Publish(topic Topic, payload any) Message {
	b.mu.Lock()
	b.seq[topic]++
	msg := Message{Topic: topic, Seq: b.seq[topic], Published: b.sched.Now(), Payload: payload}
	subs := append([]*Subscription(nil), b.subs[topic]...)
	b.published++
	b.mu.Unlock()
	for _, sub := range subs {
		sub := sub
		if !sub.deliverable() {
			continue
		}
		b.sched.After(sub.delay+sub.extraDelay, func(now simtime.Time) {
			if !sub.deliverable() {
				return
			}
			b.mu.Lock()
			b.delivered++
			b.mu.Unlock()
			sub.handler(now, msg)
		})
	}
	return msg
}

// Counts reports (published, delivered).
func (b *Bus) Counts() (uint64, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.published, b.delivered
}
