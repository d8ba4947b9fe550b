package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"fbdetect/internal/pprofparse"
)

// Inputs are a pure function of (workload, seed, scale). The system under
// test only ever sees the bytes generated here; every random draw comes
// from a math/rand v1 source seeded from -seed.
//
// The seed drives the noise: every value's Gaussian term, every profile's
// sampling jitter, and which pooled profile a step uploads. The shape of a
// workload (which series step, spike or swing, by how much and when; the
// profiled call tree) is the same for every seed. With the shape drawn
// from the seed too, the number of change-point candidates per sweep, and
// with it sweep CPU, moved by up to 37% (quartile distance) from seed to
// seed, which is more than any regression this benchmark is meant to see.

// epoch is data-time step 0. Steps are one minute, the binaries' TSDB step.
var epoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

func stepTime(step int) time.Time { return epoch.Add(time.Duration(step) * time.Minute) }

// scanTimeAfter is the scan time that makes step the newest point of the
// window: windows are [scan-9h, scan), so the scan sits one step later.
func scanTimeAfter(step int) time.Time { return stepTime(step + 1) }

// historySteps is the window the shipped binaries scan (5h+3h+1h of minutes).
const historySteps = 540

type seriesClass uint8

const (
	classNoise seriesClass = iota
	classStep
	classTransient
	classSeasonal
)

// Series-class shares of every NDJSON workload, as ISSUE 14 fixes them.
const (
	stepShare      = 0.02
	transientShare = 0.04
	seasonalShare  = 0.10
	noiseRel       = 0.02 // Gaussian sigma as a share of the base level
	seasonPeriod   = 120
)

type seriesSpec struct {
	id      string // tsdb metric ID, service/entity/gcpu
	service int
	class   seriesClass
	base    float64
	onset   int     // first step of the step or transient
	length  int     // transient length in steps
	mag     float64 // relative size of the step, transient or seasonal swing
	phase   int
}

// level is the noise-free value at a step.
func (s *seriesSpec) level(step int) float64 {
	switch s.class {
	case classStep:
		if step >= s.onset {
			return s.base * (1 + s.mag)
		}
	case classTransient:
		if step >= s.onset && step < s.onset+s.length {
			return s.base * (1 + s.mag)
		}
	case classSeasonal:
		return s.base * (1 + s.mag*math.Sin(2*math.Pi*float64(step+s.phase)/seasonPeriod))
	}
	return s.base
}

// ndjsonModel describes the series of one NDJSON stream. liveStart is the
// first phase-B step: step onsets are staggered around it so that first
// reports spread over the live cycles instead of landing on the first one.
type ndjsonModel struct {
	services []string
	series   []seriesSpec // contiguous per service
	bounds   []int        // series[bounds[i]:bounds[i+1]] belongs to services[i]
}

func newNDJSONModel(shape int64, svcPrefix string, nServices, perService, liveStart int) *ndjsonModel {
	rng := rand.New(rand.NewSource(shape))
	m := &ndjsonModel{bounds: []int{0}}
	for sv := 0; sv < nServices; sv++ {
		name := fmt.Sprintf("%s%d", svcPrefix, sv)
		m.services = append(m.services, name)
		nStep := max(1, int(math.Round(stepShare*float64(perService))))
		nTrans := int(math.Round(transientShare * float64(perService)))
		nSeas := int(math.Round(seasonalShare * float64(perService)))
		perm := rng.Perm(perService)
		classes := make([]seriesClass, perService)
		for k, idx := range perm {
			switch {
			case k < nStep:
				classes[idx] = classStep
			case k < nStep+nTrans:
				classes[idx] = classTransient
			case k < nStep+nTrans+nSeas:
				classes[idx] = classSeasonal
			}
		}
		for i := 0; i < perService; i++ {
			s := seriesSpec{
				id:      fmt.Sprintf("%s/fn%04d/gcpu", name, i),
				service: sv,
				class:   classes[i],
				base:    0.02 + 0.02*rng.Float64(),
			}
			switch s.class {
			case classStep:
				// A persistent step must clear the binaries' absolute
				// threshold of 0.001, so stepped series sit in the upper
				// half of the base range: +5-10% of >=0.04 is >=0.002.
				s.base = 0.04 + 0.02*rng.Float64()
				s.mag = 0.05 + 0.05*rng.Float64()
				s.onset = liveStart - 75 + rng.Intn(70)
			case classTransient:
				// Tall enough that a quarter of the diluted change-point
				// delta stays clear of the noise in the went-away tail
				// mean; at +8-16% the filter let about one seed in two
				// report a transient.
				s.mag = 0.30 + 0.20*rng.Float64()
				s.length = 8 + rng.Intn(32)
				s.onset = liveStart - 200 + rng.Intn(240)
			case classSeasonal:
				s.mag = 0.03 + 0.03*rng.Float64()
				s.phase = rng.Intn(seasonPeriod)
			}
			m.series = append(m.series, s)
		}
		m.bounds = append(m.bounds, len(m.series))
	}
	return m
}

// valueStream yields the model's values step by step, in micro-units (the
// 1e-6 grid sampled gCPU sits on). Two streams of one model are identical,
// which is how the reference pipeline gets the points the SUT was sent.
type valueStream struct {
	m    *ndjsonModel
	rng  *rand.Rand
	step int
}

func (m *ndjsonModel) stream(seed int64) *valueStream {
	return &valueStream{m: m, rng: rand.New(rand.NewSource(seed))}
}

// next fills dst (len(m.series)) with the next step's values and returns
// the step index.
func (vs *valueStream) next(dst []int64) int {
	for i := range vs.m.series {
		s := &vs.m.series[i]
		v := s.level(vs.step) + noiseRel*s.base*vs.rng.NormFloat64()
		dst[i] = max(0, int64(math.Round(v*1e6)))
	}
	vs.step++
	return vs.step - 1
}

// microToFloat is the float64 the SUT's JSON decoder produces for the
// decimal appendMicro writes: both are the correctly rounded micro/1e6.
func microToFloat(micro int64) float64 { return float64(micro) / 1e6 }

// ndjsonEncoder renders /ingest bodies by appending bytes; the hot path
// does no reflection and no allocation once its buffers have grown.
type ndjsonEncoder struct {
	prefix [][]byte // per series: {"metric":"<id>","time":"
}

func newNDJSONEncoder(m *ndjsonModel) *ndjsonEncoder {
	e := &ndjsonEncoder{prefix: make([][]byte, len(m.series))}
	for i := range m.series {
		e.prefix[i] = []byte(`{"metric":"` + m.series[i].id + `","time":"`)
	}
	return e
}

// appendBody appends one NDJSON line per series in [lo, hi).
func (e *ndjsonEncoder) appendBody(dst []byte, lo, hi, step int, micro []int64) []byte {
	ts := stepTime(step).AppendFormat(nil, time.RFC3339)
	for i := lo; i < hi; i++ {
		dst = append(dst, e.prefix[i]...)
		dst = append(dst, ts...)
		dst = append(dst, `","value":`...)
		dst = appendMicro(dst, micro[i])
		dst = append(dst, "}\n"...)
	}
	return dst
}

// appendMicro writes micro/1e6 as a decimal with exactly six fraction digits.
func appendMicro(dst []byte, micro int64) []byte {
	dst = strconv.AppendInt(dst, micro/1e6, 10)
	dst = append(dst, '.')
	frac := micro % 1e6
	for div := int64(1e5); div > 0; div /= 10 {
		dst = append(dst, byte('0'+frac/div%10))
	}
	return dst
}

// Profile workloads. One profModel is one service's call tree; its bodies
// are gzipped pprof protobufs whose sample counts carry sampling noise.
const (
	profMaxDepth  = 40
	profSamples   = 1e6 // samples per body: sqrt-noise of a fleet-wide minute
	profPoolSize  = 64
	profSpikePool = 16
	profSpikeLen  = 20
)

type profRegime uint8

const (
	regimeBefore profRegime = iota // victim at 8%
	regimeSpike                    // victim at 8%, spiker doubled
	regimeAfter                    // victim at 12%
)

type profModel struct {
	service string
	victim  string          // function whose self cost steps from 8% to 12%
	stepped map[string]bool // the victim and its ancestors: every series the step moves
	spiker  string          // function that spikes for profSpikeLen steps and recovers
	onset   int
	spikeAt int
	pools   [3][][]byte
	picks   []uint8 // per step: index into that step's regime pool
}

func (p *profModel) regimeAt(step int) profRegime {
	switch {
	case step >= p.onset:
		return regimeAfter
	case step >= p.spikeAt && step < p.spikeAt+profSpikeLen:
		return regimeSpike
	}
	return regimeBefore
}

// body is the upload for a step.
func (p *profModel) body(step int) []byte {
	pool := p.pools[p.regimeAt(step)]
	return pool[int(p.picks[step])%len(pool)]
}

// newProfModel builds a service of funcs functions. Two thirds of them are
// hot; at the committed 300 those are the 200 the binaries' top-K keeps.
func newProfModel(shape, seed int64, service string, funcs, steps, onset, spikeAt int) *profModel {
	rng := rand.New(rand.NewSource(shape))
	p := &profModel{service: service, onset: onset, spikeAt: spikeAt}
	profFuncs, profHot := funcs, funcs*2/3

	// A random call tree. Half the time a node extends the most recent
	// node, which grows chains up to profMaxDepth frames deep. The victim,
	// the spiker and the cold functions hang off the other hot functions
	// and are leaves, so each moves only its own ancestors.
	victim, spiker, inner := profHot-1, profHot-2, profHot-2
	names := make([]string, profFuncs)
	parent := make([]int, profFuncs)
	depth := make([]int, profFuncs)
	names[0], parent[0], depth[0] = "pkg00.fn000", -1, 1
	for i := 1; i < profFuncs; i++ {
		names[i] = fmt.Sprintf("pkg%02d.fn%03d", i%17, i)
		par := rng.Intn(min(i, inner))
		if i < inner && rng.Intn(2) == 0 {
			par = i - 1
		}
		if depth[par] >= profMaxDepth {
			par = 0
		}
		parent[i], depth[i] = par, depth[par]+1
	}
	stacks := make([][]string, profFuncs)
	for i := range stacks {
		st := make([]string, depth[i])
		for n, d := i, depth[i]-1; n >= 0; n, d = parent[n], d-1 {
			st[d] = names[n]
		}
		stacks[i] = st
	}

	// Self weights: hot functions log-normal, cold ones two orders of
	// magnitude below the coldest hot one, so the top-K set never changes
	// from body to body and every tracked series is gap-free.
	self := make([]float64, profFuncs)
	var hotSum float64
	for i := 0; i < profHot; i++ {
		self[i] = math.Exp(rng.NormFloat64())
		hotSum += self[i]
	}
	p.victim, p.spiker = names[victim], names[spiker]
	p.stepped = map[string]bool{}
	for _, fn := range stacks[victim] {
		p.stepped[fn] = true
	}
	rest := hotSum - self[victim] - self[spiker]
	for i := 0; i < profHot; i++ {
		self[i] *= 0.89 * profSamples / rest
	}
	self[spiker] = 0.03 * profSamples
	for i := profHot; i < profFuncs; i++ {
		self[i] = 1 + float64(rng.Intn(3))
	}

	rng = rand.New(rand.NewSource(seed)) // from here on: noise
	build := func(regime profRegime) []byte {
		b := pprofparse.NewBuilder("cpu", "nanoseconds")
		b.SetPeriod(10e6)
		for i, w := range self {
			switch {
			case i == victim:
				w = 0.08 * profSamples
				if regime == regimeAfter {
					w = 0.12 * profSamples
				}
			case i == spiker && regime == regimeSpike:
				w *= 2
			}
			n := int64(math.Round(w + math.Sqrt(w)*rng.NormFloat64()))
			b.Add(stacks[i], max(1, n)*10e6)
		}
		return b.Profile().MarshalGzip()
	}
	for i := 0; i < profPoolSize; i++ {
		p.pools[regimeBefore] = append(p.pools[regimeBefore], build(regimeBefore))
		p.pools[regimeAfter] = append(p.pools[regimeAfter], build(regimeAfter))
	}
	for i := 0; i < profSpikePool; i++ {
		p.pools[regimeSpike] = append(p.pools[regimeSpike], build(regimeSpike))
	}
	p.picks = make([]uint8, steps)
	for i := range p.picks {
		p.picks[i] = uint8(rng.Intn(profPoolSize))
	}
	return p
}
