package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"hetsynth/internal/canon"
	"hetsynth/internal/dfg"
)

// This file is the binary wire protocol of /v1/solve and /v1/solve-batch —
// the raw-speed alternative to the JSON bodies, negotiated by Content-Type
// (request codec) and Accept (response codec). JSON remains the compatibility
// path and the differential oracle: a binary exchange must resolve to the
// same canonical digests and decode to the same response struct as its JSON
// twin.
//
// Frame layout (all multi-byte integers little-endian):
//
//	+-----------+--------+----------------+---------------+
//	| "HSB1"    | type   | payload length | payload       |
//	| 4 bytes   | 1 byte | u32            | length bytes  |
//	+-----------+--------+----------------+---------------+
//
// with type 1 = solve request, 2 = solve response, 3 = batch request,
// 4 = batch response. The frame must span the HTTP body exactly.
//
// Solve-request payload:
//
//	flags     u8      bit0 schedule, bit1 slack mode, bit2 has timeout
//	deadline  uvarint (the slack when bit1 is set)
//	timeout   uvarint milliseconds, present iff bit2
//	algo      string  (uvarint length + bytes; empty = "auto")
//	source    u8      0 = inline instance, 1 = benchmark
//	0: inst   u32 length + canonical instance bytes ('G' graph + 'T' table
//	          sections, exactly package canon's digest encoding)
//	1: bench  string, then table u8 (1 = catalog: string; 2 = seed: 8-byte
//	          seed + uvarint type count)
//
// The inline form is the hot path: the instance bytes are decoded strictly
// (canon.DecodeInstance), so the server digests the wire bytes directly
// (canon.KeysEncoded) instead of re-encoding the decoded problem — the
// canonicalize re-marshal the JSON path pays is skipped entirely.
//
// Error responses are always JSON, whatever the negotiated codec: they are
// rare, small, and a client that cannot parse the binary codec must still be
// able to read why.

// BinContentType is the Content-Type (and Accept) value selecting the binary
// codec.
const BinContentType = "application/x-hetsynth-bin"

const (
	binMsgSolveReq  = 1
	binMsgSolveResp = 2
	binMsgBatchReq  = 3
	binMsgBatchResp = 4
)

const (
	binFlagSchedule   = 1 << 0
	binFlagSlack      = 1 << 1
	binFlagTimeout    = 1 << 2
	binSrcInline      = 0
	binSrcBench       = 1
	binTableCatalog   = 1
	binTableSeed      = 2
	binMaxNameLen     = 256 // algo / bench / catalog names
	binEntryError     = 0
	binEntryResult    = 1
	binRespFlagGap    = 1 << 0
	binRespFlagLB     = 1 << 1
	binRespFlagFront  = 1 << 2
	binRespFlagSched  = 1 << 3
)

var binMagic = [4]byte{'H', 'S', 'B', '1'}

// codecID indexes rawEntry.body: one pre-encoded response per wire codec.
type codecID int

const (
	codecJSON codecID = 0
	codecBin  codecID = 1
	numCodecs         = 2
)

func (c codecID) contentType() string {
	if c == codecBin {
		return BinContentType
	}
	return "application/json"
}

// isBinContentType reports whether a Content-Type header selects the binary
// request codec (parameters after ';' are tolerated).
func isBinContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == BinContentType
}

// respCodecFor resolves the response codec: binary when the request itself is
// binary or when Accept names the binary type; JSON otherwise.
func respCodecFor(binReq bool, accept string) codecID {
	if binReq || strings.Contains(accept, BinContentType) {
		return codecBin
	}
	return codecJSON
}

// ---- pooled encode buffer ----

// binBuf recycles binary response encodings, mirroring encBuf for JSON.
type binBuf struct{ b []byte }

var binBufPool = sync.Pool{New: func() any { return &binBuf{b: make([]byte, 0, 4096)} }}

func getBinBuf() *binBuf {
	bb := binBufPool.Get().(*binBuf)
	bb.b = bb.b[:0]
	return bb
}

func putBinBuf(bb *binBuf) { binBufPool.Put(bb) }

// ---- encode primitives ----

func appendUvarint(b []byte, x uint64) []byte { return binary.AppendUvarint(b, x) }

func appendWireString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// beginFrame writes the header with a zero length; endFrame patches it.
func beginFrame(b []byte, msg byte) []byte {
	b = append(b, binMagic[:]...)
	b = append(b, msg)
	return append(b, 0, 0, 0, 0)
}

func endFrame(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[5:9], uint32(len(b)-9))
	return b
}

// ---- strict decode cursor ----

type wireDec struct {
	b   []byte
	off int
}

var errWireTruncated = errors.New("truncated binary payload")

func (d *wireDec) remaining() int { return len(d.b) - d.off }

func (d *wireDec) u8() (byte, error) {
	if d.off >= len(d.b) {
		return 0, errWireTruncated
	}
	c := d.b[d.off]
	d.off++
	return c, nil
}

func (d *wireDec) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, errWireTruncated
	}
	d.off += n
	return x, nil
}

// uint reads a uvarint bounded by max (inclusive), as an int.
func (d *wireDec) uint(max int) (int, error) {
	x, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if x > uint64(max) {
		return 0, fmt.Errorf("value %d exceeds maximum %d", x, max)
	}
	return int(x), nil
}

func (d *wireDec) str(maxLen int) (string, error) {
	n, err := d.uint(maxLen)
	if err != nil {
		return "", err
	}
	if n > d.remaining() {
		return "", errWireTruncated
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s, nil
}

func (d *wireDec) f64() (float64, error) {
	if d.remaining() < 8 {
		return 0, errWireTruncated
	}
	x := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return math.Float64frombits(x), nil
}

func (d *wireDec) u32() (uint32, error) {
	if d.remaining() < 4 {
		return 0, errWireTruncated
	}
	x := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return x, nil
}

func (d *wireDec) i64() (int64, error) {
	if d.remaining() < 8 {
		return 0, errWireTruncated
	}
	x := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return int64(x), nil
}

// openFrame validates the header against the full body and returns the
// payload, which must span the rest of the body exactly.
func openFrame(body []byte, wantMsg byte) ([]byte, *apiError) {
	if len(body) < 9 {
		return nil, badRequest("binary frame shorter than its 9-byte header")
	}
	if [4]byte(body[:4]) != binMagic {
		return nil, badRequest("bad binary frame magic")
	}
	if body[4] != wantMsg {
		return nil, badRequest("binary frame type %d, want %d", body[4], wantMsg)
	}
	n := binary.LittleEndian.Uint32(body[5:9])
	if uint64(n) != uint64(len(body)-9) {
		return nil, badRequest("binary frame declares %d payload bytes, body carries %d", n, len(body)-9)
	}
	return body[9:], nil
}

// ---- solve request ----

// appendSolveRequestPayload encodes one solve request entry (no frame
// header). Inline graphs and tables are folded into the canonical instance
// encoding; bench-named graphs keep their catalog or seed table reference.
// This is the client-side half of the codec, used by tooling and tests — the
// server only decodes.
func appendSolveRequestPayload(b []byte, req *SolveRequest) ([]byte, error) {
	var flags byte
	if req.Schedule {
		flags |= binFlagSchedule
	}
	deadline := uint64(req.Deadline)
	if req.Slack != nil {
		if req.Deadline != 0 {
			return nil, errors.New("use either deadline or slack, not both")
		}
		if *req.Slack < 0 {
			return nil, fmt.Errorf("negative slack %d", *req.Slack)
		}
		flags |= binFlagSlack
		deadline = uint64(*req.Slack)
	} else if req.Deadline < 0 {
		return nil, fmt.Errorf("negative deadline %d", req.Deadline)
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("negative timeout_ms %d", req.TimeoutMS)
	}
	if req.TimeoutMS > 0 {
		flags |= binFlagTimeout
	}
	b = append(b, flags)
	b = appendUvarint(b, deadline)
	if req.TimeoutMS > 0 {
		b = appendUvarint(b, uint64(req.TimeoutMS))
	}
	b = appendWireString(b, req.Algorithm)
	switch {
	case len(req.Graph) > 0:
		if req.Table == nil {
			return nil, errors.New("binary inline form needs an inline table alongside the inline graph")
		}
		g := dfg.New()
		if err := g.UnmarshalJSON(req.Graph); err != nil {
			return nil, fmt.Errorf("invalid graph: %w", err)
		}
		treq := *req
		tab, err := resolveTable(&treq, g)
		if err != nil {
			return nil, err
		}
		b = append(b, binSrcInline)
		lenAt := len(b)
		b = append(b, 0, 0, 0, 0)
		b = canon.AppendInstance(b, g, tab)
		binary.LittleEndian.PutUint32(b[lenAt:], uint32(len(b)-lenAt-4))
	case req.Bench != "":
		b = append(b, binSrcBench)
		b = appendWireString(b, req.Bench)
		switch {
		case req.Catalog != "":
			b = append(b, binTableCatalog)
			b = appendWireString(b, req.Catalog)
		case req.Seed != nil:
			b = append(b, binTableSeed)
			b = binary.LittleEndian.AppendUint64(b, uint64(*req.Seed))
			b = appendUvarint(b, uint64(req.Types))
		default:
			return nil, errors.New("binary bench form needs a catalog or seed table")
		}
	default:
		return nil, errors.New("a graph is required: set graph or bench")
	}
	return b, nil
}

// EncodeBinSolveRequest encodes req as a complete binary /v1/solve body.
func EncodeBinSolveRequest(req *SolveRequest) ([]byte, error) {
	b := beginFrame(nil, binMsgSolveReq)
	b, err := appendSolveRequestPayload(b, req)
	if err != nil {
		return nil, err
	}
	return endFrame(b), nil
}

// EncodeBinBatchRequest encodes req as a complete binary /v1/solve-batch
// body: a uvarint entry count followed by the entry payloads back to back.
func EncodeBinBatchRequest(req *BatchRequest) ([]byte, error) {
	b := beginFrame(nil, binMsgBatchReq)
	b = appendUvarint(b, uint64(len(req.Entries)))
	var err error
	for i := range req.Entries {
		if b, err = appendSolveRequestPayload(b, &req.Entries[i]); err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, err)
		}
	}
	return endFrame(b), nil
}

// decodeSolveEntry parses one solve-request payload at the cursor and
// resolves it to a spec. A non-nil *apiError is a semantic rejection with the
// cursor correctly advanced (batch decoding isolates it per entry); a plain
// error is a malformed encoding and poisons the whole body.
func decodeSolveEntry(d *wireDec) (*solveSpec, *apiError, error) {
	flags, err := d.u8()
	if err != nil {
		return nil, nil, err
	}
	if flags&^(binFlagSchedule|binFlagSlack|binFlagTimeout) != 0 {
		return nil, nil, fmt.Errorf("unknown request flags 0x%02x", flags)
	}
	req := SolveRequest{Schedule: flags&binFlagSchedule != 0}
	dl, err := d.uint(maxDeadline)
	if err != nil {
		return nil, nil, fmt.Errorf("deadline: %w", err)
	}
	if flags&binFlagSlack != 0 {
		req.Slack = &dl
	} else {
		req.Deadline = dl
	}
	if flags&binFlagTimeout != 0 {
		if req.TimeoutMS, err = d.uint(math.MaxInt32); err != nil {
			return nil, nil, fmt.Errorf("timeout: %w", err)
		}
	}
	if req.Algorithm, err = d.str(binMaxNameLen); err != nil {
		return nil, nil, fmt.Errorf("algorithm: %w", err)
	}
	src, err := d.u8()
	if err != nil {
		return nil, nil, err
	}
	switch src {
	case binSrcInline:
		n, err := d.u32()
		if err != nil {
			return nil, nil, err
		}
		if int(n) > d.remaining() {
			return nil, nil, errWireTruncated
		}
		instBytes := d.b[d.off : d.off+int(n)]
		d.off += int(n)
		g, tab, inst, rest, err := canon.DecodeInstance(instBytes)
		if err != nil {
			// The instance section is framed by its length, so a bad instance
			// is isolated: the cursor is already past it.
			return nil, badRequest("invalid instance encoding: %v", err), nil
		}
		if len(rest) != 0 {
			return nil, badRequest("instance encoding carries %d trailing bytes", len(rest)), nil
		}
		spec, rerr := resolveWith(g, tab, &req, inst)
		if rerr != nil {
			return nil, rerr.(*apiError), nil
		}
		return spec, nil, nil
	case binSrcBench:
		if req.Bench, err = d.str(binMaxNameLen); err != nil {
			return nil, nil, fmt.Errorf("bench: %w", err)
		}
		tk, err := d.u8()
		if err != nil {
			return nil, nil, err
		}
		switch tk {
		case binTableCatalog:
			if req.Catalog, err = d.str(binMaxNameLen); err != nil {
				return nil, nil, fmt.Errorf("catalog: %w", err)
			}
		case binTableSeed:
			seed, err := d.i64()
			if err != nil {
				return nil, nil, err
			}
			req.Seed = &seed
			if req.Types, err = d.uint(16); err != nil {
				return nil, nil, fmt.Errorf("types: %w", err)
			}
		default:
			return nil, nil, fmt.Errorf("unknown table source %d", tk)
		}
		spec, rerr := resolve(&req, nil)
		if rerr != nil {
			return nil, rerr.(*apiError), nil
		}
		return spec, nil, nil
	default:
		return nil, nil, fmt.Errorf("unknown graph source %d", src)
	}
}

// decodeSolveRequestBin parses a complete binary /v1/solve body.
func decodeSolveRequestBin(body []byte) (*solveSpec, *apiError) {
	payload, aerr := openFrame(body, binMsgSolveReq)
	if aerr != nil {
		return nil, aerr
	}
	d := &wireDec{b: payload}
	spec, aerr, err := decodeSolveEntry(d)
	if err != nil {
		return nil, badRequest("invalid binary request: %v", err)
	}
	if aerr != nil {
		return nil, aerr
	}
	if d.remaining() != 0 {
		return nil, badRequest("trailing data after binary request")
	}
	return spec, nil
}

// binBatchEntry is one decoded batch entry: a resolved spec or its semantic
// rejection.
type binBatchEntry struct {
	spec *solveSpec
	aerr *apiError
}

// decodeBatchRequestBin parses a complete binary /v1/solve-batch body.
// Semantic failures stay per entry; encoding failures reject the body.
func decodeBatchRequestBin(body []byte) ([]binBatchEntry, *apiError) {
	payload, aerr := openFrame(body, binMsgBatchReq)
	if aerr != nil {
		return nil, aerr
	}
	d := &wireDec{b: payload}
	n, err := d.uint(maxBatchEntries)
	if err != nil {
		return nil, badRequest("invalid binary batch: entry count: %v", err)
	}
	if n == 0 {
		return nil, badRequest("batch has no entries")
	}
	entries := make([]binBatchEntry, n)
	for i := range entries {
		spec, aerr, err := decodeSolveEntry(d)
		if err != nil {
			return nil, badRequest("invalid binary batch entry %d: %v", i, err)
		}
		entries[i] = binBatchEntry{spec: spec, aerr: aerr}
	}
	if d.remaining() != 0 {
		return nil, badRequest("trailing data after binary batch")
	}
	return entries, nil
}

// ---- solve response ----

// appendSolveResult encodes the shared result body (no source string).
func appendSolveResult(b []byte, res *SolveResult) []byte {
	b = appendWireString(b, res.Algorithm)
	b = appendUvarint(b, uint64(res.Deadline))
	b = appendUvarint(b, uint64(res.Cost))
	b = appendUvarint(b, uint64(res.Length))
	b = appendUvarint(b, uint64(len(res.Assignment)))
	for _, k := range res.Assignment {
		b = appendUvarint(b, uint64(k))
	}
	b = appendWireString(b, res.Quality)
	b = appendWireString(b, res.Stage)
	var flags byte
	if res.Gap != nil {
		flags |= binRespFlagGap
	}
	if res.LowerBound != nil {
		flags |= binRespFlagLB
	}
	if res.Frontier != nil {
		flags |= binRespFlagFront
	}
	if res.Schedule != nil {
		flags |= binRespFlagSched
	}
	b = append(b, flags)
	if res.Gap != nil {
		b = appendF64(b, *res.Gap)
	}
	if res.LowerBound != nil {
		b = appendUvarint(b, uint64(*res.LowerBound))
	}
	if res.Frontier != nil {
		b = appendUvarint(b, uint64(len(res.Frontier)))
		for _, p := range res.Frontier {
			b = appendUvarint(b, uint64(p.Deadline))
			b = appendUvarint(b, uint64(p.Cost))
		}
	}
	if res.Schedule != nil {
		sp := res.Schedule
		b = appendUvarint(b, uint64(len(sp.Start)))
		for _, x := range sp.Start {
			b = appendUvarint(b, uint64(x))
		}
		for _, x := range sp.Instance {
			b = appendUvarint(b, uint64(x))
		}
		b = appendUvarint(b, uint64(sp.Length))
		b = appendUvarint(b, uint64(len(sp.Config)))
		for _, x := range sp.Config {
			b = appendUvarint(b, uint64(x))
		}
	}
	return appendF64(b, res.ElapsedMS)
}

// appendSolveRespFrame encodes a complete binary solve response body.
func appendSolveRespFrame(b []byte, resp *SolveResponse) []byte {
	b = beginFrame(b, binMsgSolveResp)
	b = appendWireString(b, resp.Source)
	b = appendSolveResult(b, &resp.SolveResult)
	return endFrame(b)
}

// appendBatchRespFrame encodes a complete binary batch response body.
func appendBatchRespFrame(b []byte, resp *BatchResponse) []byte {
	b = beginFrame(b, binMsgBatchResp)
	b = appendUvarint(b, uint64(len(resp.Results)))
	for i := range resp.Results {
		r := &resp.Results[i]
		if r.Result == nil {
			b = append(b, binEntryError)
			b = appendWireString(b, r.Error)
			b = appendUvarint(b, uint64(r.Status))
			continue
		}
		b = append(b, binEntryResult)
		b = appendWireString(b, r.Source)
		b = appendSolveResult(b, r.Result)
	}
	b = appendUvarint(b, uint64(resp.Entries))
	b = appendUvarint(b, uint64(resp.Deduped))
	return endFrame(appendF64(b, resp.ElapsedMS))
}

// maxWireElems bounds decoded slice lengths in responses; responses are
// server-built, so this only guards client-side decoding of corrupt streams.
const maxWireElems = 1 << 22

func decodeSolveResult(d *wireDec) (*SolveResult, error) {
	res := &SolveResult{}
	var err error
	if res.Algorithm, err = d.str(binMaxNameLen); err != nil {
		return nil, err
	}
	if res.Deadline, err = d.uint(maxDeadline); err != nil {
		return nil, err
	}
	cost, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	res.Cost = int64(cost)
	if res.Length, err = d.uint(maxDeadline); err != nil {
		return nil, err
	}
	n, err := d.uint(maxWireElems)
	if err != nil {
		return nil, err
	}
	if n > d.remaining() {
		return nil, errWireTruncated
	}
	res.Assignment = make([]int, n)
	for i := range res.Assignment {
		if res.Assignment[i], err = d.uint(math.MaxInt32); err != nil {
			return nil, err
		}
	}
	if res.Quality, err = d.str(binMaxNameLen); err != nil {
		return nil, err
	}
	if res.Stage, err = d.str(binMaxNameLen); err != nil {
		return nil, err
	}
	flags, err := d.u8()
	if err != nil {
		return nil, err
	}
	if flags&binRespFlagGap != 0 {
		g, err := d.f64()
		if err != nil {
			return nil, err
		}
		res.Gap = &g
	}
	if flags&binRespFlagLB != 0 {
		lb, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		l := int64(lb)
		res.LowerBound = &l
	}
	if flags&binRespFlagFront != 0 {
		n, err := d.uint(maxWireElems)
		if err != nil {
			return nil, err
		}
		if n > d.remaining() {
			return nil, errWireTruncated
		}
		res.Frontier = make([]FrontierPointPayload, n)
		for i := range res.Frontier {
			if res.Frontier[i].Deadline, err = d.uint(maxDeadline); err != nil {
				return nil, err
			}
			c, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			res.Frontier[i].Cost = int64(c)
		}
	}
	if flags&binRespFlagSched != 0 {
		sp := &SchedulePayload{}
		n, err := d.uint(maxWireElems)
		if err != nil {
			return nil, err
		}
		if 2*n > d.remaining() {
			return nil, errWireTruncated
		}
		sp.Start = make([]int, n)
		sp.Instance = make([]int, n)
		for i := range sp.Start {
			if sp.Start[i], err = d.uint(math.MaxInt32); err != nil {
				return nil, err
			}
		}
		for i := range sp.Instance {
			if sp.Instance[i], err = d.uint(math.MaxInt32); err != nil {
				return nil, err
			}
		}
		if sp.Length, err = d.uint(math.MaxInt32); err != nil {
			return nil, err
		}
		k, err := d.uint(maxWireElems)
		if err != nil {
			return nil, err
		}
		if k > d.remaining() {
			return nil, errWireTruncated
		}
		sp.Config = make([]int, k)
		for i := range sp.Config {
			if sp.Config[i], err = d.uint(math.MaxInt32); err != nil {
				return nil, err
			}
		}
		res.Schedule = sp
	}
	if res.ElapsedMS, err = d.f64(); err != nil {
		return nil, err
	}
	return res, nil
}

// DecodeBinSolveResponse parses a binary /v1/solve response body.
func DecodeBinSolveResponse(body []byte) (*SolveResponse, error) {
	payload, aerr := openFrame(body, binMsgSolveResp)
	if aerr != nil {
		return nil, errors.New(aerr.Msg)
	}
	d := &wireDec{b: payload}
	source, err := d.str(binMaxNameLen)
	if err != nil {
		return nil, err
	}
	res, err := decodeSolveResult(d)
	if err != nil {
		return nil, err
	}
	if d.remaining() != 0 {
		return nil, errors.New("trailing data after binary response")
	}
	return &SolveResponse{Source: source, SolveResult: *res}, nil
}

// DecodeBinBatchResponse parses a binary /v1/solve-batch response body.
func DecodeBinBatchResponse(body []byte) (*BatchResponse, error) {
	payload, aerr := openFrame(body, binMsgBatchResp)
	if aerr != nil {
		return nil, errors.New(aerr.Msg)
	}
	d := &wireDec{b: payload}
	n, err := d.uint(maxBatchEntries)
	if err != nil {
		return nil, err
	}
	resp := &BatchResponse{Results: make([]BatchEntryResult, n)}
	for i := range resp.Results {
		kind, err := d.u8()
		if err != nil {
			return nil, err
		}
		switch kind {
		case binEntryError:
			if resp.Results[i].Error, err = d.str(maxBodyBytes); err != nil {
				return nil, err
			}
			if resp.Results[i].Status, err = d.uint(999); err != nil {
				return nil, err
			}
		case binEntryResult:
			if resp.Results[i].Source, err = d.str(binMaxNameLen); err != nil {
				return nil, err
			}
			if resp.Results[i].Result, err = decodeSolveResult(d); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("unknown batch entry kind %d", kind)
		}
	}
	if resp.Entries, err = d.uint(maxBatchEntries); err != nil {
		return nil, err
	}
	if resp.Deduped, err = d.uint(maxBatchEntries); err != nil {
		return nil, err
	}
	if resp.ElapsedMS, err = d.f64(); err != nil {
		return nil, err
	}
	if d.remaining() != 0 {
		return nil, errors.New("trailing data after binary batch response")
	}
	return resp, nil
}
