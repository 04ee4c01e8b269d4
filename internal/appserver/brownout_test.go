package appserver

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// brownoutClock is an adjustable time source shared by the controller and
// its RateWindow.
type brownoutClock struct{ t time.Time }

func (c *brownoutClock) now() time.Time          { return c.t }
func (c *brownoutClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestBrownoutEngagesOnShedRate: sustained sheds past the engage threshold
// flip the controller to degraded; scattered sheds below it do not.
func TestBrownoutEngagesOnShedRate(t *testing.T) {
	clk := &brownoutClock{t: time.Unix(5000, 0)}
	b := NewBrownout(0.25, 0.05, time.Second, clk.now)

	// 5% sheds: healthy.
	for i := 0; i < 95; i++ {
		b.Observe(false)
	}
	for i := 0; i < 5; i++ {
		b.Observe(true)
	}
	if b.State() != BrownoutNormal {
		t.Fatal("5% shed rate must not engage brownout")
	}

	// 50% sheds: degraded.
	for i := 0; i < 50; i++ {
		b.Observe(true)
		b.Observe(false)
	}
	if b.State() != BrownoutDegraded {
		t.Fatal("50% shed rate must engage brownout")
	}
}

// TestBrownoutRecoversAfterCooldown: the controller leaves degraded mode
// only after a full cooldown AND a shed rate back under the recovery
// threshold — one healthy instant is not enough.
func TestBrownoutRecoversAfterCooldown(t *testing.T) {
	clk := &brownoutClock{t: time.Unix(5000, 0)}
	b := NewBrownout(0.25, 0.05, time.Second, clk.now)
	for i := 0; i < 30; i++ {
		b.Observe(true)
	}
	if b.State() != BrownoutDegraded {
		t.Fatal("pure shed traffic must engage brownout")
	}

	// Healthy traffic immediately after engagement: still inside the
	// cooldown, so still degraded (anti-flap).
	clk.advance(100 * time.Millisecond)
	for i := 0; i < 50; i++ {
		b.Observe(false)
	}
	if b.State() != BrownoutDegraded {
		t.Fatal("cooldown must hold the degraded state against early recovery")
	}

	// Past the cooldown with a clean window: recovered. (The advance also
	// ages the shed burst out of the 2s rate window.)
	clk.advance(3 * time.Second)
	for i := 0; i < 50; i++ {
		b.Observe(false)
	}
	if b.State() != BrownoutNormal {
		t.Fatal("clean window past the cooldown must recover")
	}
}

// TestBrownoutHoldsWhileShedsContinue: cooldown expiry alone is not an exit
// condition — a still-failing backend keeps the controller degraded.
func TestBrownoutHoldsWhileShedsContinue(t *testing.T) {
	clk := &brownoutClock{t: time.Unix(5000, 0)}
	b := NewBrownout(0.25, 0.05, 500*time.Millisecond, clk.now)
	for i := 0; i < 30; i++ {
		b.Observe(true)
	}
	for round := 0; round < 5; round++ {
		clk.advance(time.Second)
		for i := 0; i < 20; i++ {
			b.Observe(true)
		}
		if b.State() != BrownoutDegraded {
			t.Fatalf("round %d: still shedding, must stay degraded", round)
		}
	}
}

// TestBrownoutIgnoresThinSamples: a couple of failed requests on an
// otherwise idle server are statistically meaningless and must not trip a
// site-wide degradation.
func TestBrownoutIgnoresThinSamples(t *testing.T) {
	clk := &brownoutClock{t: time.Unix(5000, 0)}
	b := NewBrownout(0.25, 0.05, time.Second, clk.now)
	for i := 0; i < 5; i++ {
		b.Observe(true) // 100% shed rate, 5 samples
	}
	if b.State() != BrownoutNormal {
		t.Fatal("5 samples must be below the minimum for engagement")
	}
}

// TestBrownoutServesStaleReads drives an installed controller into degraded
// mode and checks that a read of a written key is answered from the cache,
// flagged X-Degraded: stale, while an uncached key still reads through.
func TestBrownoutServesStaleReads(t *testing.T) {
	reg, err := UniquenessModels()
	if err != nil {
		t.Fatal(err)
	}
	d, pool := newStack(t, reg, 2)
	srv := NewServer(pool)
	clk := &brownoutClock{t: time.Unix(5000, 0)}
	b := NewBrownout(0.25, 0.05, time.Second, clk.now)
	srv.EnableBrownout(b)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	resp, err := http.Post(base+"/entries", "application/json",
		strings.NewReader(`{"model":"ValidatedKeyValue","key":"a","value":"1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create = %d", resp.StatusCode)
	}
	for i := 0; i < 30; i++ {
		b.Observe(true)
	}
	if b.State() != BrownoutDegraded {
		t.Fatal("brownout did not engage")
	}
	// Move the database on behind the cache's back: a read that reached it
	// would see "2", and the key "b" exists only there.
	conn := d.Connect()
	defer conn.Close()
	if _, err := conn.Exec("UPDATE validated_key_values SET value = '2' WHERE key = 'a'"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("INSERT INTO validated_key_values (key, value) VALUES ('b', '3')"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ key, reply, degraded string }{
		{"a", "{\"key\":\"a\",\"value\":\"1\"}\n", "stale"},
		{"b", "{\"key\":\"b\",\"value\":\"3\"}\n", ""},
	} {
		resp, err := http.Get(base + "/entries/" + c.key + "?model=ValidatedKeyValue")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != c.reply {
			t.Errorf("GET %s = %d %q, want 200 %q", c.key, resp.StatusCode, body, c.reply)
		}
		if got := resp.Header.Get("X-Degraded"); got != c.degraded {
			t.Errorf("GET %s: X-Degraded = %q, want %q", c.key, got, c.degraded)
		}
	}
}
