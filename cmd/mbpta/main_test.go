package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the command's current output")

// runMainEnv, when set, makes the test binary run the command itself:
// the golden test re-executes its own binary with the command's flags.
const runMainEnv = "MBPTA_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGoldenOutput pins the command's stdout, stderr and exit code on a
// measured kernel (plain, -skip-iid, -pot) and on checked-in samples: a
// measured sample, a constant one (no i.i.d. battery can run) and a
// trend (the battery rejects it).
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"bench_ca", []string{"-bench", "CA", "-runs", "300"}},
		{"bench_ca_skip", []string{"-bench", "CA", "-runs", "300", "-skip-iid"}},
		{"bench_ca_pot", []string{"-bench", "CA", "-runs", "300", "-pot"}},
		{"times", []string{"-times", "testdata/times.txt"}},
		{"times_pot", []string{"-times", "testdata/times.txt", "-pot"}},
		{"constant", []string{"-times", "testdata/constant.txt"}},
		{"constant_skip", []string{"-times", "testdata/constant.txt", "-skip-iid"}},
		{"trend", []string{"-times", "testdata/trend.txt"}},
		{"trend_skip", []string{"-times", "testdata/trend.txt", "-skip-iid"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			code := 0
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					t.Fatal(err)
				}
				code = exit.ExitCode()
			}
			got := fmt.Sprintf("exit %d\n-- stdout --\n%s-- stderr --\n%s", code, stdout.Bytes(), stderr.Bytes())
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("mbpta %v:\ngot:\n%s\nwant:\n%s", tc.args, got, want)
			}
		})
	}
}
