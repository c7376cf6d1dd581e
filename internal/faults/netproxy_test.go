package faults

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"
)

// proxyBackend is a plain HTTP server answering a fixed body big
// enough that a mid-body reset provably truncates it.
func proxyBackend(t *testing.T) *httptest.Server {
	t.Helper()
	body := strings.Repeat("x", 8192)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// oneShotClient disables keep-alives so each request is one proxied
// connection — the unit the fate schedule is drawn per.
func oneShotClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout:   timeout,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
}

func TestNetProxyForwardsCleanly(t *testing.T) {
	ts := proxyBackend(t)
	p := NewNetProxy(NetProxyConfig{Seed: 1, Target: strings.TrimPrefix(ts.URL, "http://")})
	addr, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	client := oneShotClient(5 * time.Second)
	for i := 0; i < 3; i++ {
		resp, err := client.Get("http://" + addr)
		if err != nil {
			t.Fatalf("request %d through fault-free proxy: %v", i, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || len(data) != 8192 {
			t.Fatalf("request %d body = %d bytes, err %v", i, len(data), err)
		}
	}
	// The proxy books a connection once its copy of the response ends,
	// which may be after the client has read the whole body.
	deadline := time.Now().Add(5 * time.Second)
	for p.Counts()[ProxyForwarded] < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := p.Counts()[ProxyForwarded]; got != 3 {
		t.Fatalf("forwarded = %d, want 3", got)
	}
}

func TestNetProxyDropsAreDeterministic(t *testing.T) {
	ts := proxyBackend(t)
	run := func() []bool {
		p := NewNetProxy(NetProxyConfig{Seed: 42, Target: strings.TrimPrefix(ts.URL, "http://"), DropRate: 0.5})
		addr, err := p.Start()
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		client := oneShotClient(5 * time.Second)
		var fates []bool
		for i := 0; i < 10; i++ {
			resp, err := client.Get("http://" + addr)
			if err == nil {
				resp.Body.Close()
			}
			fates = append(fates, err == nil)
		}
		return fates
	}
	a, b := run(), run()
	dropped := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fate %d differs across identically seeded runs: %v vs %v", i, a, b)
		}
		if !a[i] {
			dropped++
		}
	}
	if dropped == 0 || dropped == len(a) {
		t.Fatalf("drop rate 0.5 produced %d/%d drops — schedule not exercising both fates", dropped, len(a))
	}
}

func TestNetProxyMidBodyReset(t *testing.T) {
	ts := proxyBackend(t)
	p := NewNetProxy(NetProxyConfig{Seed: 7, Target: strings.TrimPrefix(ts.URL, "http://"), ResetRate: 1})
	addr, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	resp, err := oneShotClient(5 * time.Second).Get("http://" + addr)
	if err == nil {
		// The status line may squeeze through ResetAfterBytes; the body
		// must then fail mid-read.
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Fatal("reset fate delivered a complete response")
	}
	if got := p.Counts()[ProxyReset]; got != 1 {
		t.Fatalf("reset count = %d, want 1", got)
	}
}

func TestNetProxyLatencyTripsClientTimeout(t *testing.T) {
	ts := proxyBackend(t)
	p := NewNetProxy(NetProxyConfig{
		Seed: 3, Target: strings.TrimPrefix(ts.URL, "http://"),
		LatencyRate: 1, Latency: 300 * time.Millisecond,
	})
	addr, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	_, err = oneShotClient(50 * time.Millisecond).Get("http://" + addr)
	var ne net.Error
	if err == nil || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("slow-peer fate error = %v, want a timeout", err)
	}
	// The same proxy without the tight budget still answers.
	resp, err := oneShotClient(5 * time.Second).Get("http://" + addr)
	if err != nil {
		t.Fatalf("patient client through slow proxy: %v", err)
	}
	resp.Body.Close()
}

func TestNetProxyPartitionRefusesAndHeals(t *testing.T) {
	ts := proxyBackend(t)
	p := NewNetProxy(NetProxyConfig{Seed: 9, Target: strings.TrimPrefix(ts.URL, "http://")})
	addr, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if err := p.Partition(true); err != nil {
		t.Fatal(err)
	}
	_, err = oneShotClient(2 * time.Second).Get("http://" + addr)
	if err == nil || !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("partitioned proxy error = %v, want connection refused", err)
	}
	if err := p.Partition(false); err != nil {
		t.Fatal(err)
	}
	resp, err := oneShotClient(2 * time.Second).Get("http://" + addr)
	if err != nil {
		t.Fatalf("healed partition still failing: %v", err)
	}
	resp.Body.Close()
}
