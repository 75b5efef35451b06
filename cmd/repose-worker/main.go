// Command repose-worker runs one cluster worker process. The driver
// (repose.BuildRemote or the examples/distributed program) ships it
// partitions over TCP and broadcasts queries to it. SIGINT/SIGTERM
// shut it down cleanly by closing the listener.
//
// Usage:
//
//	repose-worker -addr 127.0.0.1:7701 &
//	repose-worker -addr 127.0.0.1:7702 &
//
// Replacing a dead worker in a replicated cluster (the driver's
// failure detector streams the partition state back automatically):
//
//	repose-worker -addr 127.0.0.1:7701 -rejoin &
//
// With -data-dir the worker keeps every partition on disk (checkpoint
// + write-ahead log) and a restart on the same directory recovers
// them locally — the driver re-admits the worker without streaming
// state from a peer when the recovered generations are current:
//
//	repose-worker -addr 127.0.0.1:7701 -data-dir /var/lib/repose/w1 &
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repose"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7701", "listen address (host:port, :0 for ephemeral)")
	rejoin := flag.Bool("rejoin", false, "rejoin a replicated cluster as the replacement for a dead worker: start empty and await a state restore from the driver")
	dataDir := flag.String("data-dir", "", "directory for durable partition stores; a restart on the same directory recovers them from their write-ahead logs")
	layout := flag.String("layout", "", "force every partition this worker builds to this index layout (pointer|compressed), overriding the driver; answers are identical across layouts")
	queryWorkers := flag.Int("query-workers", 0, "cap this worker's total concurrent partition scans across all in-flight queries (0 = GOMAXPROCS per query)")
	flag.Parse()

	log.SetPrefix("repose-worker: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := repose.ServeWorkerOptions(ctx, *addr, repose.WorkerOptions{Rejoin: *rejoin, DataDir: *dataDir, Layout: *layout, QueryWorkers: *queryWorkers}, func(bound string) {
		fmt.Printf("listening on %s (protocol v%d)\n", bound, repose.ProtocolVersion)
		if *rejoin {
			log.Print("rejoin mode: awaiting state restore from the driver")
		}
		if *dataDir != "" {
			log.Printf("durable partitions under %s", *dataDir)
		}
		if *layout != "" {
			log.Printf("forcing the %s layout on every partition built here", *layout)
		}
		if *queryWorkers > 0 {
			log.Printf("capping concurrent partition scans at %d", *queryWorkers)
		}
	})
	if errors.Is(err, context.Canceled) {
		log.Print("shutting down")
		return
	}
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
}
