package serve

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"d2x/internal/d2x/wire"
)

// LoadConfig configures a load run against a debug server.
type LoadConfig struct {
	// Addr is the server to drive. Empty starts an in-process server on a
	// loopback port for the duration of the run.
	Addr string
	// Clients is how many concurrent connections to hold open, each with
	// its own live debug session.
	Clients int
	// CommandsPerClient is the steady-state command count per client:
	// alternating xbt/xvars round trips against a session stopped at a
	// breakpoint, the paper's interactive hot path.
	CommandsPerClient int
	// Example is the build every session launches (default "power").
	Example string
	// Batch, when >= 2, groups the steady-state commands into batch
	// requests of this many sub-commands: one wire round trip per batch
	// instead of per command. 0 or 1 issues them as standalone requests.
	Batch int
}

// LoadResult is the outcome of one load run. Latencies are exact
// quantiles over every measured steady-state command, not histogram
// buckets.
type LoadResult struct {
	Clients  int   `json:"clients"`
	Batch    int   `json:"batch,omitempty"`
	Commands int64 `json:"commands"`
	Errors   int64 `json:"errors"`
	// ElapsedMS is wall time for the whole run; CommandsPerSec counts
	// debugger commands (batch sub-commands individually), and
	// CommandsPerSecPerCore divides that by GOMAXPROCS so runs on
	// different hosts and CI shapes compare on one axis.
	ElapsedMS             float64 `json:"elapsed_ms"`
	CommandsPerSec        float64 `json:"commands_per_sec"`
	CommandsPerSecPerCore float64 `json:"commands_per_sec_per_core"`
	P50MS                 float64 `json:"p50_ms"`
	P99MS                 float64 `json:"p99_ms"`
	MaxMS                 float64 `json:"max_ms"`
}

// RunLoad drives cfg.Clients concurrent debug sessions and reports
// throughput and command-latency quantiles. Every client runs the same
// script: launch, set a breakpoint on the staged function, run to it,
// then issue the steady-state commands; setup commands are not measured.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("serve: load needs a positive client count")
	}
	if cfg.CommandsPerClient <= 0 {
		cfg.CommandsPerClient = 20
	}
	if cfg.Example == "" {
		cfg.Example = "power"
	}

	addr := cfg.Addr
	if addr == "" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := New()
		done := make(chan struct{})
		go func() { defer close(done); srv.Serve(ln) }()
		defer func() { srv.Close(); <-done }()
		addr = ln.Addr().String()
		// Build the example before the clients stampede: the first launch
		// pays the build under the catalogue lock either way, but paying
		// it here keeps it out of every client's setup window.
		if _, err := srv.build(cfg.Example); err != nil {
			return nil, err
		}
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		latNS    []int64
		cmdCount atomic.Int64
		errCount atomic.Int64
	)
	start := time.Now()
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lats, cmds, err := loadClient(addr, cfg)
			if err != nil {
				errCount.Add(1)
				return
			}
			cmdCount.Add(cmds)
			mu.Lock()
			latNS = append(latNS, lats...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &LoadResult{
		Clients:   cfg.Clients,
		Batch:     cfg.Batch,
		Commands:  cmdCount.Load(),
		Errors:    errCount.Load(),
		ElapsedMS: float64(elapsed.Nanoseconds()) / 1e6,
	}
	if len(latNS) == 0 {
		return res, fmt.Errorf("serve: load run measured no commands (%d client errors)", res.Errors)
	}
	res.CommandsPerSec = float64(res.Commands) / elapsed.Seconds()
	res.CommandsPerSecPerCore = res.CommandsPerSec / float64(runtime.GOMAXPROCS(0))
	sort.Slice(latNS, func(a, b int) bool { return latNS[a] < latNS[b] })
	res.P50MS = float64(latNS[len(latNS)/2]) / 1e6
	res.P99MS = float64(latNS[len(latNS)*99/100]) / 1e6
	res.MaxMS = float64(latNS[len(latNS)-1]) / 1e6
	return res, nil
}

// loadClient runs one scripted session and returns its measured
// round-trip latencies plus how many debugger commands they carried
// (equal in sequential mode; Batch per round trip in batch mode).
func loadClient(addr string, cfg LoadConfig) ([]int64, int64, error) {
	c, err := wire.DialTimeout(addr, 30*time.Second)
	if err != nil {
		return nil, 0, err
	}
	defer c.Close()

	if _, err := c.Do(wire.CmdLaunch, &wire.Args{Example: cfg.Example}); err != nil {
		return nil, 0, err
	}
	// Stop inside the staged function so the D2X commands have a frame
	// with DSL context to resolve.
	if _, err := c.Do(wire.CmdBreak, &wire.Args{Spec: breakSpecFor(cfg.Example)}); err != nil {
		return nil, 0, err
	}
	if _, err := c.Do(wire.CmdRun, nil); err != nil {
		return nil, 0, err
	}
	c.Events()

	subCmd := func(i int) (string, *wire.Args) {
		if i%2 == 1 {
			return wire.CmdXVars, nil
		}
		return wire.CmdXBT, nil
	}

	var cmds int64
	lats := make([]int64, 0, cfg.CommandsPerClient)
	if cfg.Batch >= 2 {
		subs := make([]wire.SubRequest, 0, cfg.Batch)
		for done := 0; done < cfg.CommandsPerClient; {
			subs = subs[:0]
			for len(subs) < cfg.Batch && done+len(subs) < cfg.CommandsPerClient {
				cmd, args := subCmd(done + len(subs))
				subs = append(subs, wire.SubRequest{Command: cmd, Arguments: args})
			}
			t0 := time.Now()
			results, err := c.DoBatch(subs)
			if err != nil {
				return nil, 0, err
			}
			lats = append(lats, time.Since(t0).Nanoseconds())
			for _, r := range results {
				if !r.Success {
					return nil, 0, fmt.Errorf("serve: batch sub-command failed: %s", r.Message)
				}
			}
			done += len(subs)
			cmds += int64(len(subs))
		}
	} else {
		for i := 0; i < cfg.CommandsPerClient; i++ {
			cmd, args := subCmd(i)
			t0 := time.Now()
			if _, err := c.Do(cmd, args); err != nil {
				return nil, 0, err
			}
			lats = append(lats, time.Since(t0).Nanoseconds())
			cmds++
		}
	}
	_, err = c.Do(wire.CmdDisconnect, nil)
	return lats, cmds, err
}

// breakSpecFor names the staged function of each example build — the
// breakpoint the load script stops at.
func breakSpecFor(example string) string {
	switch example {
	case "power":
		return "power_15"
	case "quickstart":
		return "sum_squares"
	case "einsum":
		return "m_v_mul"
	}
	return "main"
}
