package server

import (
	"bytes"
	"encoding/json"
	"unicode/utf8"

	"repro/internal/dispatch"
	"repro/internal/instance"
)

// DecodeSolve decodes a POST /v1/solve or /v1/peek body into req,
// overwriting every field. The strict decoder runs first; only a body
// it rejects goes to encoding/json's stream decoder, which keeps that
// decoder's error text and its tolerance of data after the top-level
// value. Either way req ends up as encoding/json would leave a fresh
// request, except that an empty or absent job or assignment array may
// come back as an empty non-nil slice.
func DecodeSolve(body []byte, req *SolveRequest) error {
	if DecodeSolveStrict(body, req) {
		return nil
	}
	return decodeSolveJSON(body, req)
}

// DecodeSolveStrict decodes body with the strict decoder alone,
// reusing req's job and assignment capacity, and reports whether it
// accepted. On false req is unspecified and the caller falls back to
// encoding/json as DecodeSolve does. A registered solver's name is the
// registry's copy, so a warm req decodes a strict body without
// allocating.
func DecodeSolveStrict(body []byte, req *SolveRequest) bool {
	solver, ok := decodeStrict(body, req)
	if ok {
		req.Solver = dispatch.SolverName(solver)
	}
	return ok
}

// decodeSolveJSON is the encoding/json fallback. It decodes into a
// zeroed req: encoding/json leaves absent fields and reused slice
// elements as it finds them, so reused memory must not carry over.
func decodeSolveJSON(body []byte, req *SolveRequest) error {
	*req = SolveRequest{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// decodeStrict parses the common shape of a POST /v1/solve body into
// req without allocating, reusing req's job and assignment slices. It
// accepts only the strict core of the wire format — an object with the
// known keys, strings without escapes, integer numbers (a short plain
// decimal for eps), no extension fields, each key at most once — and
// reports false on ANY deviation, in which case DecodeSolve hands the
// body to encoding/json. For every body it does accept, the resulting
// request is exactly what encoding/json would have produced, so the
// fallback is a pure slow path, never a semantic fork.
//
// The solver name is returned as a sub-slice of data rather than stored
// in req.Solver; DecodeSolveStrict fills req.Solver with the
// registry's copy of the name.
func decodeStrict(data []byte, req *SolveRequest) (solver []byte, ok bool) {
	// Reset the request, keeping the slice capacity for reuse.
	jobs, assign := req.Instance.Jobs[:0], req.Instance.Assign[:0]
	*req = SolveRequest{}

	p := parser{data: data}
	p.ws()
	if !p.eat('{') {
		return nil, false
	}
	// seen guards against duplicate keys (encoding/json keeps the last
	// one; rather than replicate that, bail to the slow path).
	var seen uint8
	const (
		sawSolver = 1 << iota
		sawInstance
		sawK
		sawBudget
		sawEps
		sawTimeout
	)
	first := true
	for {
		p.ws()
		if p.eat('}') {
			break
		}
		if !first && !p.eat(',') {
			return nil, false
		}
		if !first {
			p.ws()
		}
		first = false
		key, ok := p.str()
		if !ok {
			return nil, false
		}
		p.ws()
		if !p.eat(':') {
			return nil, false
		}
		p.ws()
		switch string(key) {
		case "solver":
			if seen&sawSolver != 0 {
				return nil, false
			}
			seen |= sawSolver
			if solver, ok = p.str(); !ok {
				return nil, false
			}
		case "instance":
			if seen&sawInstance != 0 {
				return nil, false
			}
			seen |= sawInstance
			var ok bool
			jobs, assign, ok = p.parseInstance(&req.Instance.Instance, jobs, assign)
			if !ok {
				return nil, false
			}
		case "k":
			if seen&sawK != 0 {
				return nil, false
			}
			seen |= sawK
			v, ok := p.int64()
			if !ok || int64(int(v)) != v {
				return nil, false
			}
			req.K = int(v)
		case "budget":
			if seen&sawBudget != 0 {
				return nil, false
			}
			seen |= sawBudget
			v, ok := p.int64()
			if !ok {
				return nil, false
			}
			req.Budget = v
		case "eps":
			if seen&sawEps != 0 {
				return nil, false
			}
			seen |= sawEps
			v, ok := p.float()
			if !ok {
				return nil, false
			}
			req.Eps = v
		case "timeout_ms":
			if seen&sawTimeout != 0 {
				return nil, false
			}
			seen |= sawTimeout
			v, ok := p.int64()
			if !ok {
				return nil, false
			}
			req.TimeoutMS = v
		default:
			// Unknown key (including "ks" — sweeps take the slow path).
			return nil, false
		}
	}
	p.ws()
	// encoding/json's stream decoder tolerates trailing data after the
	// top-level value; matching that without parsing it is not possible,
	// so any trailing byte falls back.
	if p.pos != len(p.data) {
		return nil, false
	}
	if seen&sawSolver == 0 {
		return nil, false
	}
	req.Instance.Jobs, req.Instance.Assign = jobs, assign
	return solver, true
}

// parser is a minimal strict JSON scanner over a byte slice. It
// never allocates; string values are returned as sub-slices.
type parser struct {
	data []byte
	pos  int
}

func (p *parser) ws() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) eat(c byte) bool {
	if p.pos < len(p.data) && p.data[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// peek returns the next n bytes of input, fewer at its end.
func (p *parser) peek(n int) []byte { return p.data[p.pos:min(len(p.data), p.pos+n)] }

// commaThen consumes a ',' directly followed by a byte in [lo, hi]:
// the separator encoding/json writes, which needs no whitespace scan.
func (p *parser) commaThen(lo, hi byte) bool {
	if p.pos+1 < len(p.data) && p.data[p.pos] == ',' && p.data[p.pos+1] >= lo && p.data[p.pos+1] <= hi {
		p.pos++
		return true
	}
	return false
}

// str scans a string literal with no escapes, no control bytes and no
// invalid UTF-8 (which encoding/json would replace with U+FFFD),
// returning its contents.
func (p *parser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.pos
	ascii := true
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		if c == '"' {
			s := p.data[start:p.pos]
			p.pos++
			return s, ascii || utf8.Valid(s)
		}
		if c == '\\' || c < 0x20 {
			return nil, false
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
		p.pos++
	}
	return nil, false
}

// int64 scans a JSON integer (no fraction, no exponent, no leading
// zeros) that fits in int64. Eighteen digits cannot overflow, so only
// the digits after them are checked.
func (p *parser) int64() (int64, bool) {
	data, i := p.data, p.pos
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for end := min(len(data), start+18); i < end; i++ {
		c := data[i] - '0'
		if c > 9 {
			break
		}
		v = v*10 + int64(c)
	}
	for ; i < len(data); i++ {
		c := data[i] - '0'
		if c > 9 {
			break
		}
		if v > (1<<63-1)/10 {
			return 0, false
		}
		if v = v*10 + int64(c); v < 0 {
			return 0, false
		}
	}
	p.pos = i
	if n := i - start; n == 0 || (n > 1 && data[start] == '0') {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// float scans an integer or a short plain decimal (no exponent, at most
// 15 significant digits, fraction at most 15 digits). Both the mantissa
// and the power of ten are then exactly representable in a float64, so
// mantissa/10^k is correctly rounded — bit-identical to what
// strconv.ParseFloat (and therefore encoding/json) produces. Anything
// longer or stranger falls back.
func (p *parser) float() (float64, bool) {
	neg := p.eat('-')
	start := p.pos
	var mant int64
	digits := 0
	frac := 0
	dot := false
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		if c == '.' {
			if dot || p.pos == start || digits == 0 {
				return 0, false
			}
			dot = true
			p.pos++
			continue
		}
		if c < '0' || c > '9' {
			break
		}
		if digits >= 15 {
			return 0, false
		}
		mant = mant*10 + int64(c-'0')
		digits++
		if dot {
			frac++
		}
		p.pos++
	}
	if digits == 0 || (dot && frac == 0) {
		return 0, false
	}
	// Leading-zero check on the integer part, mirroring JSON grammar.
	intDigits := digits - frac
	if intDigits == 0 || (intDigits > 1 && p.data[start] == '0') {
		return 0, false
	}
	if p.pos < len(p.data) {
		if c := p.data[p.pos]; c == 'e' || c == 'E' {
			return 0, false
		}
	}
	v := float64(mant)
	if frac > 0 {
		v /= pow10[frac]
	}
	if neg {
		v = -v
	}
	return v, true
}

var pow10 = [16]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// parseInstance scans the embedded instance object: plain m/jobs/assign
// only — extension fields (allowed, conflicts) fall back.
func (p *parser) parseInstance(in *instance.Instance, jobs []instance.Job, assign []int) ([]instance.Job, []int, bool) {
	if !p.eat('{') {
		return jobs, assign, false
	}
	var seen uint8
	const (
		sawM = 1 << iota
		sawJobs
		sawAssign
	)
	first := true
	for {
		p.ws()
		if p.eat('}') {
			break
		}
		if !first && !p.eat(',') {
			return jobs, assign, false
		}
		if !first {
			p.ws()
		}
		first = false
		key, ok := p.str()
		if !ok {
			return jobs, assign, false
		}
		p.ws()
		if !p.eat(':') {
			return jobs, assign, false
		}
		p.ws()
		switch string(key) {
		case "m":
			if seen&sawM != 0 {
				return jobs, assign, false
			}
			seen |= sawM
			v, ok := p.int64()
			if !ok || int64(int(v)) != v {
				return jobs, assign, false
			}
			in.M = int(v)
		case "jobs":
			if seen&sawJobs != 0 {
				return jobs, assign, false
			}
			seen |= sawJobs
			jobs, ok = p.parseJobs(jobs)
			if !ok {
				return jobs, assign, false
			}
		case "assign":
			if seen&sawAssign != 0 {
				return jobs, assign, false
			}
			seen |= sawAssign
			assign, ok = p.parseInts(assign)
			if !ok {
				return jobs, assign, false
			}
		default:
			return jobs, assign, false
		}
	}
	in.Jobs, in.Assign = jobs, assign
	return jobs, assign, true
}

func (p *parser) parseJobs(jobs []instance.Job) ([]instance.Job, bool) {
	if !p.eat('[') {
		return jobs, false
	}
	first := true
	for {
		if first || !p.commaThen('{', '{') {
			p.ws()
			if p.eat(']') {
				return jobs, true
			}
			if !first && !p.eat(',') {
				return jobs, false
			}
			p.ws()
		}
		first = false
		job, ok := p.parseJob()
		if !ok {
			return jobs, false
		}
		jobs = append(jobs, job)
	}
}

// jobLiteral reads a job in the layout encoding/json writes,
// {"id":N,"size":N,"cost":N}, matching its keys as byte literals. On
// any other layout it reports false, and parseJob reads the job again
// with its general loop. Each literal is compared with a constant in
// place: the compiler turns that into one load and compare, where a
// string parameter would cost a call to memequal.
func (p *parser) jobLiteral() (job instance.Job, ok bool) {
	const id, size, cost = `{"id":`, `,"size":`, `,"cost":`
	if string(p.peek(len(id))) != id {
		return job, false
	}
	p.pos += len(id)
	v, ok := p.int64()
	if !ok || int64(int(v)) != v || string(p.peek(len(size))) != size {
		return job, false
	}
	p.pos += len(size)
	job.ID = int(v)
	if job.Size, ok = p.int64(); !ok || string(p.peek(len(cost))) != cost {
		return job, false
	}
	p.pos += len(cost)
	if job.Cost, ok = p.int64(); !ok || !p.eat('}') {
		return job, false
	}
	return job, true
}

func (p *parser) parseJob() (instance.Job, bool) {
	start := p.pos
	if job, ok := p.jobLiteral(); ok {
		return job, true
	}
	p.pos = start
	var job instance.Job
	if !p.eat('{') {
		return job, false
	}
	var seen uint8
	const (
		sawID = 1 << iota
		sawSize
		sawCost
	)
	first := true
	for {
		p.ws()
		if p.eat('}') {
			return job, true
		}
		if !first && !p.eat(',') {
			return job, false
		}
		if !first {
			p.ws()
		}
		first = false
		key, ok := p.str()
		if !ok {
			return job, false
		}
		p.ws()
		if !p.eat(':') {
			return job, false
		}
		p.ws()
		v, ok := p.int64()
		if !ok {
			return job, false
		}
		switch string(key) {
		case "id":
			if seen&sawID != 0 || int64(int(v)) != v {
				return job, false
			}
			seen |= sawID
			job.ID = int(v)
		case "size":
			if seen&sawSize != 0 {
				return job, false
			}
			seen |= sawSize
			job.Size = v
		case "cost":
			if seen&sawCost != 0 {
				return job, false
			}
			seen |= sawCost
			job.Cost = v
		default:
			return job, false
		}
	}
}

func (p *parser) parseInts(out []int) ([]int, bool) {
	if !p.eat('[') {
		return out, false
	}
	first := true
	for {
		if first || !p.commaThen('0', '9') {
			p.ws()
			if p.eat(']') {
				return out, true
			}
			if !first && !p.eat(',') {
				return out, false
			}
			p.ws()
		}
		first = false
		v, ok := p.int64()
		if !ok || int64(int(v)) != v {
			return out, false
		}
		out = append(out, int(v))
	}
}
