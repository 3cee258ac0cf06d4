package service

// Trace ingestion: POST /v1/trace uploads a binary memory-access trace
// once, content-addressed by the SHA-256 of its raw bytes, and any
// estimate or static request may then name it via program.trace_hash
// instead of benchmark/source. The trace is validated up front (the
// workload decoder bounds records, addresses, gaps and the replay budget,
// so a hostile upload is rejected before it costs anything), cached in a
// size-bounded LRU, and — when a shared blob store is wired — published
// fleet-wide so any cluster node can resolve the hash at plan time.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"unsafe"

	"efl/internal/isa"
	"efl/internal/lru"
	"efl/internal/workload"
)

// BlobStore is the shared content-addressed byte store the trace registry
// publishes to and resolves from. *cluster.DirStore satisfies it; the
// interface lives here so service does not import cluster.
type BlobStore interface {
	Get(key string) ([]byte, bool, error)
	Put(key string, body []byte) error
}

// TraceUploadResponse is the POST /v1/trace success body.
type TraceUploadResponse struct {
	// TraceHash is the SHA-256 of the raw trace bytes — the handle
	// program.trace_hash names.
	TraceHash string `json:"trace_hash"`
	Records   uint64 `json:"records"`
	DataBytes uint64 `json:"data_bytes"`
	// SharedBytes is the trace's declared cross-core shared window.
	SharedBytes uint64 `json:"shared_bytes"`
	Blocks      uint32 `json:"blocks"`
	// ReplayInstructions is the exact dynamic instruction count the
	// replayed program executes.
	ReplayInstructions uint64 `json:"replay_instructions"`
}

// handleTrace ingests one binary trace body.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "body: "+err.Error())
		return
	}
	meta, err := workload.Validate(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sum := sha256.Sum256(data)
	hash := hex.EncodeToString(sum[:])
	s.mu.Lock()
	s.traceUploads++
	s.traces.Put(hash, data)
	s.mu.Unlock()
	if s.opts.TraceStore != nil {
		// Best-effort fleet publication: a flaky store degrades trace
		// resolution to the uploading node's LRU, it does not fail uploads.
		if err := s.opts.TraceStore.Put(hash, data); err != nil {
			s.mu.Lock()
			s.traceStoreErrors++
			s.mu.Unlock()
		}
	}
	resp := TraceUploadResponse{
		TraceHash: hash, Records: meta.Records, DataBytes: meta.DataBytes,
		SharedBytes: meta.SharedBytes, Blocks: meta.BlockCount,
		ReplayInstructions: meta.ReplayInstr,
	}
	body, err := json.Marshal(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// resolveTrace returns the raw trace bytes for hash: the local LRU first,
// then the shared store (integrity-checked — the bytes must hash back to
// the key and still validate — and hydrated into the LRU on success).
func (s *Server) resolveTrace(hash string) ([]byte, error) {
	if len(hash) != 64 {
		return nil, fmt.Errorf("program: trace_hash must be 64 hex characters")
	}
	if _, err := hex.DecodeString(hash); err != nil {
		return nil, fmt.Errorf("program: trace_hash is not hex: %v", err)
	}
	s.mu.Lock()
	data, ok := s.traces.Get(hash)
	if ok {
		s.traceHits++
	} else {
		s.traceMiss++
	}
	s.mu.Unlock()
	if ok {
		return data, nil
	}
	if s.opts.TraceStore != nil {
		data, ok, err := s.opts.TraceStore.Get(hash)
		if err != nil {
			s.mu.Lock()
			s.traceStoreErrors++
			s.mu.Unlock()
		} else if ok {
			if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != hash {
				return nil, fmt.Errorf("program: trace %s: store bytes fail their content hash", hash[:12])
			}
			if _, err := workload.Validate(data); err != nil {
				return nil, fmt.Errorf("program: trace %s: store bytes invalid: %v", hash[:12], err)
			}
			s.mu.Lock()
			s.traces.Put(hash, data)
			s.mu.Unlock()
			return data, nil
		}
	}
	return nil, fmt.Errorf("program: unknown trace %s…: upload it via POST /v1/trace first", hash[:12])
}

// The resolved-program memo's bounds: an entry cap plus a byte budget
// over each entry's source text, code and data. Encodable programs have
// at most 8192 instructions (under 200 KiB of code), so inline sources of
// up to maxSourceBytes are what the budget binds on.
const (
	programMemoEntries = 256
	programMemoBytes   = 64 << 20
)

// resolvedProgram is one memoised program resolution.
type resolvedProgram struct {
	prog  *isa.Program
	sha   string
	bytes int64 // source text + code + data, charged against programMemoBytes
}

func newProgramMemo() *lru.Cache[ProgramSpec, resolvedProgram] {
	return lru.New[ProgramSpec, resolvedProgram](programMemoEntries, programMemoBytes,
		func(r resolvedProgram) int64 { return r.bytes })
}

// buildProgram resolves a ProgramSpec into a runnable program and its
// content hash. A trace_hash spec replays the stored trace; everything
// else goes through the spec's own builder. Either way the returned hash
// is the SHA-256 of the encoded instruction/data image, so an estimate of
// a traced workload keys (and caches, and routes) exactly like one of an
// assembled program.
//
// Resolution is memoised per spec: a program is a pure function of its
// spec (a trace_hash names content), and programs are read-only once
// built, so every request and worker shares one *isa.Program. A trace
// spec still resolves its trace first, so an unknown or evicted trace
// answers the same error whether or not its program is memoised. Errors
// are never memoised.
func (s *Server) buildProgram(ps ProgramSpec) (*isa.Program, string, error) {
	var trace []byte
	if ps.TraceHash != "" {
		if ps.Benchmark != "" || ps.Source != "" {
			return nil, "", fmt.Errorf("program: trace_hash is mutually exclusive with benchmark and source")
		}
		var err error
		if trace, err = s.resolveTrace(ps.TraceHash); err != nil {
			return nil, "", err
		}
	}
	s.mu.Lock()
	rp, ok := s.programs.Get(ps)
	s.mu.Unlock()
	if ok {
		return rp.prog, rp.sha, nil
	}
	var err error
	if ps.TraceHash == "" {
		rp.prog, rp.sha, err = ps.build()
	} else {
		rp.prog, rp.sha, err = replayTrace(ps, trace)
	}
	if err != nil {
		return nil, "", err
	}
	rp.bytes = int64(len(ps.Source)) + int64(len(rp.prog.Code))*int64(unsafe.Sizeof(isa.Instr{})) + int64(len(rp.prog.Data))
	s.mu.Lock()
	s.programs.Put(ps, rp)
	s.mu.Unlock()
	return rp.prog, rp.sha, nil
}

// replayTrace builds the program a trace_hash spec names from the
// resolved trace bytes.
func replayTrace(ps ProgramSpec, trace []byte) (*isa.Program, string, error) {
	name := ps.Name
	if name == "" {
		name = "trace:" + ps.TraceHash[:12]
	}
	prog, err := workload.Replay(name, trace)
	if err != nil {
		return nil, "", fmt.Errorf("program: %w", err)
	}
	return withContentHash(prog)
}

// TraceStats summarises the trace registry for /metrics.
type TraceStats struct {
	Uploads uint64 `json:"uploads"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	// StoreErrors counts failed shared-store probes/publications (the
	// degraded-but-serving signature).
	StoreErrors uint64 `json:"store_errors"`
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
}
