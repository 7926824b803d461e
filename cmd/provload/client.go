package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// arenaCap bounds the response bytes one client keeps for the deferred
// correctness pass; past it responses are checked as they arrive, which
// costs generator CPU inside the window but never skips a check.
const arenaCap = 768 << 20

// sample is one completed request of the timed window.
type sample struct {
	req    int32 // index into the client's request list
	status int16
	failed bool  // transport error (no status)
	off    int   // body offset in the arena, -1 when checked inline
	n      int   // body length
	lat    int64 // ns
}

// clientRun is one client's side of a closed-loop run.
type clientRun struct {
	reqs    []request
	next    int // requests sent so far; the list position is next modulo its length
	samples []sample
	arena   []byte
	inline  func(r *request, status int, body []byte) // used once the arena is full
	buf     bytes.Buffer
}

// newHTTPClient returns the one transport every request of a run
// shares: two keep-alive connections, one per closed-loop client.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
}

// do sends one request and returns status and body (read into buf).
func do(ctx context.Context, hc *http.Client, base string, tokens []token, r *request, buf *bytes.Buffer) (int, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, base+r.path, body)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+tokens[r.tok].secret)
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// send drives one client in a closed loop (the next request only after
// the previous reply) until the deadline. It reports false when a list
// that must not repeat has run out.
func (cr *clientRun) send(ctx context.Context, hc *http.Client, base string, tokens []token,
	deadline time.Time, cycle bool) bool {
	for ; ; cr.next++ {
		if !cycle && cr.next >= len(cr.reqs) {
			return false
		}
		t0 := time.Now()
		if !t0.Before(deadline) || ctx.Err() != nil {
			return true
		}
		i := cr.next % len(cr.reqs)
		r := &cr.reqs[i]
		status, err := do(ctx, hc, base, tokens, r, &cr.buf)
		t1 := time.Now()
		s := sample{req: int32(i), status: int16(status), failed: err != nil,
			lat: int64(t1.Sub(t0)), off: -1, n: cr.buf.Len()}
		if len(cr.arena)+cr.buf.Len() <= arenaCap {
			s.off = len(cr.arena)
			cr.arena = append(cr.arena, cr.buf.Bytes()...)
		} else if err == nil {
			cr.inline(r, status, cr.buf.Bytes())
		}
		cr.samples = append(cr.samples, s)
	}
}

// segment is one measured stretch of a timed window.
type segment struct {
	seconds  float64 // first request sent → last reply read
	cpu      float64 // server CPU seconds spent in it
	speed    float64 // machine speed during it, see probe
	runs     []*clientRun
	from, to []int // per client, the range of its samples
}

// drive cuts the window into consecutive segments. In each, every client
// runs its closed loop for the segment's length while the probe measures
// the machine's speed; the server's CPU time is read either side. A list
// that must not repeat ends the window when it runs out; the unfinished
// segment is dropped.
func drive(ctx context.Context, hc *http.Client, base string, tokens []token, runs []*clientRun,
	window, length time.Duration, cycle bool, cpu func() (float64, error)) ([]segment, error) {
	var segs []segment
	st := newProbeState()
	start := time.Now()
	for time.Since(start)+length <= window && ctx.Err() == nil {
		sg := segment{runs: runs}
		for _, cr := range runs {
			sg.from = append(sg.from, len(cr.samples))
		}
		c0, err := cpu()
		if err != nil {
			return nil, err
		}
		var wg sync.WaitGroup
		var ranOut atomic.Bool
		t0 := time.Now()
		speed := startProbe(st)
		for _, cr := range runs {
			wg.Add(1)
			go func(cr *clientRun) {
				defer wg.Done()
				if !cr.send(ctx, hc, base, tokens, t0.Add(length), cycle) {
					ranOut.Store(true)
				}
			}(cr)
		}
		wg.Wait()
		sg.seconds = time.Since(t0).Seconds()
		sg.speed = speed()
		c1, err := cpu()
		if err != nil {
			return nil, err
		}
		if ranOut.Load() {
			break
		}
		sg.cpu = c1 - c0
		for _, cr := range runs {
			sg.to = append(sg.to, len(cr.samples))
		}
		segs = append(segs, sg)
	}
	return segs, nil
}

// percentile returns the q-quantile (0..1) of ns latencies in ms by
// nearest rank; 0 for an empty set.
func percentile(lat []int64, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]int64(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / 1e6
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// midmean is the mean of the middle half of v (the lowest and the
// highest quarter are dropped): immune to a few stalled segments like a
// median, but it uses half of the values instead of one, so it repeats
// better from run to run.
func midmean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// minSegmentSamples is the fewest latencies a segment needs for its
// percentile to count.
const minSegmentSamples = 20

// window is one boot's timed window: both clients' samples and the
// segments they were taken in. A run has one window per set-up.
type window struct {
	runs []*clientRun
	segs []segment
}

// length is the measured time: the sum of the segments.
func (w *window) length() time.Duration {
	var s float64
	for i := range w.segs {
		s += w.segs[i].seconds
	}
	return time.Duration(s * float64(time.Second))
}

func segmentsOf(ws []*window) []segment {
	var out []segment
	for _, w := range ws {
		out = append(out, w.segs...)
	}
	return out
}

// each calls f for every sample of the segment.
func (sg *segment) each(f func(cr *clientRun, s *sample)) {
	for c, cr := range sg.runs {
		for i := sg.from[c]; i < sg.to[c]; i++ {
			f(cr, &cr.samples[i])
		}
	}
}

// pair is a metric both ways: scaled to the reference speed, which is
// what the run reports end to end, and as the clock read it.
type pair struct{ scaled, raw float64 }

// overSegments is the run's value of a number taken on every segment:
// the midmean of the scaled values and the midmean of the raw ones. A
// rate is the reciprocal of a time and is scaled the other way.
func overSegments(sgs []segment, rate bool, value func(i int) (v float64, ok bool)) pair {
	var sc, raw []float64
	for i := range sgs {
		v, ok := value(i)
		if !ok {
			continue
		}
		raw = append(raw, v)
		if rate {
			sc = append(sc, v/scaled(1, sgs[i].speed))
		} else {
			sc = append(sc, scaled(v, sgs[i].speed))
		}
	}
	return pair{midmean(sc), midmean(raw)}
}

// segmented returns the midmean over the segments of the q-quantile of
// the latencies that pass keep, and the total sample count. Kinds too
// rare to fill three segments fall back to the quantile of everything,
// scaled by the median speed.
func segmented(sgs []segment, q float64, keep func(*request) bool) (pair, int) {
	var all []int64
	var speeds []float64
	perSeg := make([][]int64, len(sgs))
	enough := 0
	for i := range sgs {
		sgs[i].each(func(cr *clientRun, s *sample) {
			if !s.failed && keep(&cr.reqs[s.req]) {
				perSeg[i] = append(perSeg[i], s.lat)
			}
		})
		all = append(all, perSeg[i]...)
		speeds = append(speeds, sgs[i].speed)
		if len(perSeg[i]) >= minSegmentSamples {
			enough++
		}
	}
	if enough < 3 {
		v := percentile(all, q)
		return pair{scaled(v, median(speeds)), v}, len(all)
	}
	return overSegments(sgs, false, func(i int) (float64, bool) {
		return percentile(perSeg[i], q), len(perSeg[i]) >= minSegmentSamples
	}), len(all)
}

// throughput is the midmean over the segments of successful requests
// per second; ok reports which samples count.
func throughput(sgs []segment, ok func(cr *clientRun, s *sample) bool) pair {
	return overSegments(sgs, true, func(i int) (float64, bool) {
		var n float64
		sgs[i].each(func(cr *clientRun, s *sample) {
			if ok(cr, s) {
				n++
			}
		})
		return n / sgs[i].seconds, true
	})
}

// cpuPerRequest is the midmean over the segments of server CPU
// milliseconds per completed request.
func cpuPerRequest(sgs []segment) pair {
	return overSegments(sgs, false, func(i int) (float64, bool) {
		n := 0
		sgs[i].each(func(*clientRun, *sample) { n++ })
		return sgs[i].cpu * 1e3 / float64(max(n, 1)), n > 0
	})
}
