package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/daemon"
	"repro/internal/version"
	"repro/internal/wireclient"
)

// runMain invokes the CLI entry point in-process and captures both
// streams plus the exit code — the whole observable surface of one
// squirrelctl invocation.
func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = Main(args, &out, &errb)
	return out.String(), errb.String(), code
}

// startDaemon brings up a fresh squirreld over a fresh deployment and
// returns its address. Every invocation that registers images needs its
// own daemon: Register is not idempotent, so a second run against the
// same deployment would fail with ErrRegistered.
func startDaemon(t *testing.T, opts ctlplane.Options) string {
	t.Helper()
	local, err := ctlplane.NewLocal(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := daemon.New(local, daemon.Config{Addr: "127.0.0.1:0", Tel: local.Squirrel().Telemetry()})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv.Addr().String()
}

var (
	// Wall-clock measurements are the only nondeterministic bytes in
	// traced/timed output; scrubbing every number lets the golden diff
	// assert identical *structure* where identical bytes are impossible.
	numRE = regexp.MustCompile(`-?\d+(\.\d+)?`)
	// The workload summary isolates wall cost on one line by contract.
	wallRE = regexp.MustCompile(`(?m)^  wall .*$`)
)

func scrubNums(s string) string { return numRE.ReplaceAllString(s, "N") }

var (
	// A span's wall time prints in whatever unit fits it (µs, ms, s).
	wallDurRE = regexp.MustCompile(`wall=[^ \n]+`)
	// The boot span of a rendered trace tree and everything under it.
	bootSpanRE = regexp.MustCompile(`(?ms)^( *boot node=\S+ image=)\S+([^\n]*\n).*`)
)

// scrubTrace is scrubNums for `trace boot` output. Which boot was the
// slowest is a wall-clock race — the peer-served cold boot on an idle
// machine, any boot under load — so on top of the numbers it scrubs
// wall-time units and the chosen boot's image, and drops the lanes
// under the boot span (they differ between warm and cold boots). What
// stays pinned is the scenario report and the span chain down to the
// boot: in daemon mode, session → dial → rpc.call → rpc.dispatch → boot.
func scrubTrace(s string) string {
	s = scrubNums(wallDurRE.ReplaceAllString(s, "wall=D"))
	return bootSpanRE.ReplaceAllString(s, "${1}IMG${2}")
}

// decodeRE matches the decoded-block cache's counters. The cache is one
// per process, so how many of a scenario's reads hit it depends on what
// else the process read first; the daemon goldens pin that the counters
// are listed, not their values.
var decodeRE = regexp.MustCompile(`(zvol\.decode\.(?:hit|miss))=\d+`)

func scrubDecode(s string) string { return decodeRE.ReplaceAllString(s, "${1}=N") }

// splitWatch separates the interleaved watch-stream lines from the
// scenario report: the stream races the script, so its lines land at
// nondeterministic positions and must be compared separately.
func splitWatch(s string) (script string, watch []string) {
	var rest []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "watch #") || strings.HasPrefix(line, "  watch ") {
			watch = append(watch, line)
		} else {
			rest = append(rest, line)
		}
	}
	return strings.Join(rest, "\n"), watch
}

// golden compares got against testdata/<name>.golden. The files hold
// raw stdout for the deterministic scenarios, scrubbed stdout for the
// traced ones, and splitWatch's script half for the watch runs.
// They were captured at commit 03adf0a; a behaviour-preserving change
// must pass against them unchanged.
func golden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("stdout differs from testdata/%s.golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// checkWatch splits a watch run's stdout, compares the script half
// against its golden, and asserts the stream delivered exactly n
// updates (their rows race the script, so only the count is pinned).
func checkWatch(t *testing.T, name, out string, n int) {
	t.Helper()
	script, watch := splitWatch(out)
	golden(t, name, script)
	headers := 0
	for _, l := range watch {
		if strings.HasPrefix(l, "watch #") {
			headers++
		}
	}
	if headers != n {
		t.Fatalf("streamed %d watch updates, want %d:\n%s", headers, n, strings.Join(watch, "\n"))
	}
}

// TestGoldenSubcommands pins every in-process scenario's stdout. The
// deterministic scenarios compare raw bytes; traced ones compare after
// scrubbing what the wall clock decides.
func TestGoldenSubcommands(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		scrub func(string) string
	}{
		{"run", []string{"run", "-images", "6", "-nodes", "4"}, nil},
		{"offline", []string{"run", "-images", "6", "-nodes", "4", "-offline", "node02"}, nil},
		{"vms-noverify", []string{"run", "-images", "6", "-nodes", "4", "-vms", "3", "-verify=false"}, nil},
		{"peers", []string{"peers", "-images", "6", "-nodes", "4"}, nil},
		{"gossip", []string{"run", "-images", "6", "-nodes", "4", "-index", "gossip"}, nil},
		{"health", []string{"health", "-images", "6", "-nodes", "4"}, nil},
		{"health-peers", []string{"health", "-images", "6", "-nodes", "4", "-peers"}, nil},
		{"telemetry", []string{"telemetry", "-images", "6", "-nodes", "4"}, scrubNums},
		{"trace", []string{"trace", "-images", "6", "-nodes", "4", "boot"}, scrubTrace},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, errOut, code := runMain(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, errOut)
			}
			if tc.scrub != nil {
				out = tc.scrub(out)
			}
			golden(t, tc.name, out)
		})
	}
}

// TestGoldenWatch: the watch stream interleaves with the script at
// nondeterministic positions, so the golden pins the script lines
// byte-for-byte and the stream's update count separately.
func TestGoldenWatch(t *testing.T) {
	out, errOut, code := runMain(t, "watch", "-images", "6", "-nodes", "4", "-n", "2", "-interval", "10ms")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	checkWatch(t, "watch", out, 2)
}

// TestGoldenDaemonMode repeats the goldens over the wire: each
// invocation gets its own fresh squirreld (Register is not idempotent
// across runs).
func TestGoldenDaemonMode(t *testing.T) {
	opts := ctlplane.Options{Images: 6, Nodes: 4, Peers: true, Traced: true}
	run := func(t *testing.T, sub string, rest ...string) string {
		t.Helper()
		args := append([]string{sub, "-addr", startDaemon(t, opts)}, rest...)
		out, errOut, code := runMain(t, args...)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, errOut)
		}
		return out
	}
	t.Run("peers", func(t *testing.T) {
		golden(t, "daemon-peers", scrubDecode(run(t, "peers")))
	})
	t.Run("health", func(t *testing.T) {
		golden(t, "daemon-health", scrubDecode(run(t, "health", "-peers")))
	})
	t.Run("trace", func(t *testing.T) {
		golden(t, "daemon-trace", scrubTrace(run(t, "trace", "boot")))
	})
	t.Run("watch", func(t *testing.T) {
		// Both TWatch stream elements must cross the wire.
		checkWatch(t, "daemon-watch", run(t, "watch", "-n", "2", "-interval", "10ms"), 2)
	})
}

// TestVersion: the version subcommand is the only version spelling.
func TestVersion(t *testing.T) {
	out, _, code := runMain(t, "version")
	if code != 0 || out != version.String()+"\n" {
		t.Fatalf("version: exit %d, out %q", code, out)
	}
}

// TestWorkloadCLIDeterminism: same seed, two invocations over fresh
// deployments — identical stdout once the wall-cost line (the one
// nondeterministic line, by the summary's contract) is stripped.
func TestWorkloadCLIDeterminism(t *testing.T) {
	args := []string{"workload", "-images", "8", "-nodes", "32", "-boots", "3200", "-arrivals", "flash", "-seed", "42"}
	out1, err1, code1 := runMain(t, args...)
	out2, _, code2 := runMain(t, args...)
	if code1 != 0 || code2 != 0 {
		t.Fatalf("exit codes %d/%d (stderr: %s)", code1, code2, err1)
	}
	a := wallRE.ReplaceAllString(out1, "  wall <scrubbed>")
	b := wallRE.ReplaceAllString(out2, "  wall <scrubbed>")
	if a != b {
		t.Fatalf("same seed produced different summaries:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", out1, out2)
	}
	if !wallRE.MatchString(out1) {
		t.Fatalf("summary is missing the wall-cost line:\n%s", out1)
	}
	for _, want := range []string{"flash arrivals", "32 nodes, 8 images", "3200 scheduled", "p99.9"} {
		if !strings.Contains(out1, want) {
			t.Fatalf("summary missing %q:\n%s", want, out1)
		}
	}
}

// TestWorkloadCLIDefaultBoots: -boots 0 resolves to 100 per node.
func TestWorkloadCLIDefaultBoots(t *testing.T) {
	out, errOut, code := runMain(t, "workload", "-images", "4", "-nodes", "8")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "800 boots across 8 nodes") || !strings.Contains(out, "800 scheduled") {
		t.Fatalf("default boots should be 100×nodes:\n%s", out)
	}
}

// TestWorkloadCLIOverWire drives the workload subcommand against a live
// squirreld: the scenario runs on the daemon, only the summary comes
// back, and the output matches the in-process spelling apart from wall
// cost.
func TestWorkloadCLIOverWire(t *testing.T) {
	addr := startDaemon(t, ctlplane.Options{Images: 8, Nodes: 32, Peers: true})
	wireOut, wireErr, wireCode := runMain(t,
		"workload", "-addr", addr, "-boots", "3200", "-arrivals", "flash", "-seed", "42")
	if wireCode != 0 {
		t.Fatalf("exit %d: %s", wireCode, wireErr)
	}
	localOut, _, localCode := runMain(t,
		"workload", "-images", "8", "-nodes", "32", "-boots", "3200", "-arrivals", "flash", "-seed", "42")
	if localCode != 0 {
		t.Fatalf("local exit %d", localCode)
	}
	a := wallRE.ReplaceAllString(wireOut, "")
	b := wallRE.ReplaceAllString(localOut, "")
	if a != b {
		t.Fatalf("wire and in-process workload summaries differ:\n--- wire ---\n%s\n--- local ---\n%s", wireOut, localOut)
	}
}

// TestExitCodes walks the documented exit-code table end to end through
// Main — the contract scripts depend on.
func TestExitCodes(t *testing.T) {
	t.Run("unknown-node", func(t *testing.T) {
		if _, _, code := runMain(t, "run", "-images", "4", "-nodes", "4", "-offline", "nope"); code != exitUnknownNode {
			t.Fatalf("exit %d, want %d", code, exitUnknownNode)
		}
	})
	t.Run("unreachable-daemon", func(t *testing.T) {
		if _, _, code := runMain(t, "run", "-addr", "127.0.0.1:1"); code != exitConnect {
			t.Fatalf("exit %d, want %d", code, exitConnect)
		}
	})
	t.Run("unknown-subcommand", func(t *testing.T) {
		_, errOut, code := runMain(t, "frobnicate")
		if code != exitUsage {
			t.Fatalf("exit %d, want %d", code, exitUsage)
		}
		if !strings.Contains(errOut, "unknown command") || !strings.Contains(errOut, "usage: squirrelctl <command>") {
			t.Fatalf("unknown command should print the root usage:\n%s", errOut)
		}
	})
	t.Run("bad-flag", func(t *testing.T) {
		if _, _, code := runMain(t, "run", "-no-such-flag"); code != exitUsage {
			t.Fatalf("exit %d, want %d", code, exitUsage)
		}
	})
	// No subcommand, or a leading dash that is not a help spelling: the
	// root usage on stderr, nothing on stdout, exit 2.
	for name, args := range map[string][]string{"no-args": nil, "leading-dash": {"-peers"}, "dash-version": {"-version"}} {
		t.Run(name, func(t *testing.T) {
			out, errOut, code := runMain(t, args...)
			if code != exitUsage || out != "" || !strings.Contains(errOut, "usage: squirrelctl <command>") {
				t.Fatalf("exit %d, want %d with the root usage on stderr;\nstdout: %q\nstderr: %s", code, exitUsage, out, errOut)
			}
		})
	}
	t.Run("trace-needs-kind", func(t *testing.T) {
		if _, _, code := runMain(t, "trace"); code != exitUsage {
			t.Fatalf("exit %d, want %d", code, exitUsage)
		}
	})
	t.Run("watch-needs-positive-n", func(t *testing.T) {
		if _, _, code := runMain(t, "watch", "-n", "0"); code != exitUsage {
			t.Fatalf("exit %d, want %d", code, exitUsage)
		}
	})
	for _, spelling := range []string{"help", "-h", "--help"} {
		t.Run("help/"+spelling, func(t *testing.T) {
			out, _, code := runMain(t, spelling)
			if code != 0 || !strings.Contains(out, "workload") {
				t.Fatalf("%s: exit %d, out:\n%s", spelling, code, out)
			}
		})
	}
}

// TestExitCodeMapping covers the sentinel→code table directly,
// including the families a CLI invocation cannot easily trigger.
func TestExitCodeMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{core.ErrUnknownImage, exitUnknownImage},
		{core.ErrUnknownNode, exitUnknownNode},
		{core.ErrNodeOffline, exitNodeOffline},
		{core.ErrOverloaded, exitOverloaded},
		{wireclient.ErrConnect, exitConnect},
		{wireclient.ErrHandshake, exitConnect},
		{fmt.Errorf("wrapped: %w", core.ErrOverloaded), exitOverloaded},
		{fmt.Errorf("plain failure"), exitFailure},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("exitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestRootUsageListsEveryCommand keeps the usage text in sync with the
// command table.
func TestRootUsageListsEveryCommand(t *testing.T) {
	out, _, _ := runMain(t, "help")
	var names []string
	for _, c := range commands {
		names = append(names, c.name)
		if !strings.Contains(out, "  "+c.name) {
			t.Errorf("root usage is missing command %q", c.name)
		}
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	if len(names) != 8 {
		t.Errorf("command table has %d entries, want 8: %v", len(names), names)
	}
}
