// Command trappserver serves a TRAPP system over HTTP — the network
// service layer of the client/server scenario the paper assumes (many
// clients, many replicated sources, one precision-performance engine in
// between). It builds the link-monitoring workload
// (experiment.BuildLinkSystem) and exposes:
//
//	POST /query      execute SQL (single or ';'-separated batch); body
//	                 {"sql": ..., "deadline_ms", "budget", "mode",
//	                 "solver", "trace"}; EXPLAIN ANALYZE SELECT ...
//	                 attaches the execution trace to the result
//	GET  /subscribe  server-sent-events stream of a standing query
//	GET  /metrics    QPS, refresh traffic (incl. per-source), admission,
//	                 engine phase histograms, precision–cost telemetry
//	GET  /metrics.prom  the same in Prometheus text format
//	GET  /healthz    liveness + build info + workload descriptor
//
// Admission control: -maxinflight caps concurrent queries (429 past
// it), -clientbudget meters each client's cumulative refresh cost
// (budget-exhausted semantics once spent). -drive animates the workload
// (random-walk pushes + clock ticks); leave it off to serve a static
// system, whose answers are bit-identical to an in-process mirror built
// from the same -links/-sources/-seed.
//
// Observability: -slowquery enables the structured slow-query log on
// stderr, -pprof mounts /debug/pprof for live profiling.
//
// Durability: -data names a WAL + snapshot directory for the link
// workload (plain or -partition; each partition process gets its own
// directory). Restarting against the same directory recovers the cached
// values bit-identically while every bound conservatively re-widens
// until its source re-promises it — a crash never manufactures
// precision. /healthz reports the recovery (records replayed, torn
// tails, tuples re-widened, value digest) under "recovery".
//
// SIGINT/SIGTERM drain gracefully: streams are closed, in-flight
// requests finish, then the engine shuts down.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	gonet "net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"trapp/internal/cache"
	"trapp/internal/experiment"
	"trapp/internal/partition"
	"trapp/internal/relation"
	"trapp/internal/server"
	itrapp "trapp/internal/trapp"
	"trapp/internal/workload"
)

func main() {
	addr := flag.String("addr", ":7090", "listen address")
	framedAddr := flag.String("framed", ":7091", "framed binary-protocol listen address (empty: disabled); the bound port is published as framed_port in /healthz")
	links := flag.Int("links", 90, "number of monitored links (objects)")
	sources := flag.Int("sources", 8, "number of data sources")
	seed := flag.Int64("seed", experiment.DefaultSeed, "workload seed")
	maxInFlight := flag.Int("maxinflight", 0, "max concurrent /query requests (0: unlimited)")
	maxSubs := flag.Int("maxsubs", 0, "max concurrent /subscribe streams (0: unlimited)")
	clientBudget := flag.Float64("clientbudget", 0, "per-client cumulative refresh-cost ceiling (0: unlimited)")
	drive := flag.Duration("drive", 0, "animate the workload: random-walk pushes + a clock tick every interval (0: static)")
	latency := flag.Duration("latency", 0, "simulated wire latency per refresh transmission")
	slowQuery := flag.Duration("slowquery", 0, "log /query requests slower than this (0: disabled)")
	pprofOn := flag.Bool("pprof", false, "mount /debug/pprof profiling endpoints")
	partSpec := flag.String("partition", "", `serve one partition of an N-way link cluster: "i/N" (0-based); the framed listener then also speaks the partition protocol for trappcoord`)
	dataDir := flag.String("data", "", "durable data directory (WAL + snapshots) for the link workload; restarting with the same directory recovers cached values bit-identically and conservatively re-widens bounds (/healthz reports the recovery under \"recovery\"); give each -partition process its own directory")
	flag.Parse()

	var (
		sys *itrapp.System
		net *workload.Network
		err error

		psvc *partition.Service    // partition mode: coordinator-facing frames
		topo func() map[string]any // partition mode: /healthz topology
		owns = func(int64) bool { return true }

		rec cache.Recovery // -data: what reopening the directory rebuilt
	)
	switch {
	case *partSpec != "":
		var pi, pn int
		if _, serr := fmt.Sscanf(*partSpec, "%d/%d", &pi, &pn); serr != nil || pi < 0 || pi >= pn {
			fmt.Fprintf(os.Stderr, "trappserver: bad -partition %q (want \"i/N\" with 0 <= i < N)\n", *partSpec)
			os.Exit(1)
		}
		ids := experiment.PartitionIDs(pn)
		var ring *partition.Ring
		if *dataDir != "" {
			sys, net, ring, rec, err = experiment.BuildLinkPartitionDurable(*links, *sources, *seed, ids, pi, *dataDir, relation.WALOptions{})
		} else {
			var systems []*itrapp.System
			systems, net, ring, err = experiment.BuildLinkPartitions(*links, *sources, *seed, ids)
			if err == nil {
				// Placement needs the full ring, but this process serves
				// only its own shard.
				for j, s := range systems {
					if j != pi {
						s.Close()
					}
				}
				sys = systems[pi]
			}
		}
		if err == nil {
			psvc = partition.NewService(partition.NewLocalNode(ids[pi], sys))
			buckets := ring.Buckets(pi)
			owns = func(key int64) bool { return ring.OwnerOfKey(key) == pi }
			topo = func() map[string]any {
				return map[string]any{
					"role":       "partition",
					"id":         ids[pi],
					"partitions": pn,
					"buckets":    buckets,
					"peers":      ids,
				}
			}
		}
	case *dataDir != "":
		sys, net, rec, err = experiment.BuildLinkSystemDurable(*links, *sources, *seed, *dataDir, relation.WALOptions{})
	default:
		sys, net, err = experiment.BuildLinkSystem(*links, *sources, *seed)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "trappserver: build workload: %v\n", err)
		os.Exit(1)
	}
	if *latency > 0 {
		sys.Net.SetLatency(*latency)
	}

	info := map[string]any{
		"links":   *links,
		"sources": *sources,
		"seed":    *seed,
		"driven":  *drive > 0,
	}
	if *partSpec != "" {
		info["partition"] = *partSpec
	}
	if *dataDir != "" {
		// The recovery status /healthz publishes: what reopening the data
		// directory rebuilt, and a bound-independent digest of the
		// recovered values — two restarts over the same directory must
		// report the same digest (the crash-recovery e2e asserts it).
		info["data_dir"] = *dataDir
		info["recovery"] = map[string]any{
			"recovered":        rec.Recovered(),
			"snapshot_gen":     rec.SnapshotGen,
			"logs_replayed":    rec.LogsReplayed,
			"records_replayed": rec.RecordsReplayed,
			"torn_tails":       rec.TornTails,
			"tuples":           rec.Tuples,
			"rewidened":        rec.Rewidened,
			"value_digest":     fmt.Sprintf("%016x", sys.Cache("monitor").Store().ValueDigest()),
		}
		fmt.Printf("trappserver: data dir %s (recovered=%v tuples=%d rewidened=%d torn_tails=%d)\n",
			*dataDir, rec.Recovered(), rec.Tuples, rec.Rewidened, rec.TornTails)
	}
	cfg := server.Config{
		MaxInFlight:    *maxInFlight,
		MaxSubscribers: *maxSubs,
		ClientBudget:   *clientBudget,
		Info:           info,
		SlowQuery:      *slowQuery,
		Logger:         slog.New(slog.NewTextHandler(os.Stderr, nil)),
		EnablePprof:    *pprofOn,
		Topology:       topo,
	}
	if psvc != nil {
		cfg.FramedExt = psvc
	}
	srv := server.New(sys, cfg)

	// The driver animates the sources so subscriptions have something to
	// stream: every interval the logical clock advances one tick (bounds
	// grow, constraints can violate, the continuous engine repairs them)
	// and every link this process owns takes a random-walk step.
	driveCtx, stopDrive := context.WithCancel(context.Background())
	defer stopDrive()
	if *drive > 0 {
		go func() {
			ticker := time.NewTicker(*drive)
			defer ticker.Stop()
			for {
				select {
				case <-driveCtx.Done():
					return
				case <-ticker.C:
					for i, l := range net.Links {
						if !owns(l.Key) {
							continue
						}
						src := sys.Source(fmt.Sprintf("s%d", i%*sources))
						if err := src.SetValue(l.Key, l.Step()); err != nil {
							fmt.Fprintf(os.Stderr, "trappserver: drive: %v\n", err)
							return
						}
					}
					sys.Clock.Advance(1)
				}
			}
		}()
	}

	// The framed listener starts before HTTP so /healthz can publish the
	// bound framed port (a framed client discovers it there).
	if *framedAddr != "" {
		fln, err := srv.ListenAndServeFramed(*framedAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trappserver: listen framed %s: %v\n", *framedAddr, err)
			os.Exit(1)
		}
		if tcp, ok := fln.Addr().(*gonet.TCPAddr); ok {
			info["framed_port"] = tcp.Port
		}
		fmt.Printf("trappserver: framed protocol on %s\n", fln.Addr())
	}

	hs, ln, err := srv.ListenAndServe(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trappserver: listen %s: %v\n", *addr, err)
		os.Exit(1)
	}
	fmt.Printf("trappserver: serving %d links from %d sources on http://%s (drive=%v)\n",
		*links, *sources, ln.Addr(), *drive)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("trappserver: draining")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	stopDrive()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "trappserver: drain: %v\n", err)
	}
	_ = hs.Shutdown(ctx)
	if *dataDir != "" {
		// Flush and close the WAL so a clean shutdown leaves no torn tail.
		if err := sys.CloseDurable(); err != nil {
			fmt.Fprintf(os.Stderr, "trappserver: close wal: %v\n", err)
		}
	} else {
		sys.Close()
	}
	fmt.Println("trappserver: bye")
}
