# Convenience targets; everything is plain `go` underneath.

.PHONY: build test verify bench profile

build:
	go build ./...

test:
	go test -count=1 ./...

# Full verification gate: gofmt + vet + build + tests + race detector on
# every package except internal/experiments, then the smokes and the
# bench gate. SHORT=1 skips the long experiments suite.
verify:
	./scripts/verify.sh

# Regenerate the committed performance baseline (BENCH_SIM.json). The
# run first gates against the existing baseline: a >10% runs/sec
# regression fails before anything is overwritten (tune with
# -benchtol / -benchbaseline).
bench:
	go run ./cmd/experiments -exp bench

# Capture CPU/heap profiles of an analysis campaign (see README,
# "Profiling the simulator").
profile:
	go run ./cmd/experiments -exp iid -runs 100 -cpuprofile cpu.prof -memprofile mem.prof
	@echo "inspect with: go tool pprof -top cpu.prof"
