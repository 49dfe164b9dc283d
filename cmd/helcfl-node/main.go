// Command helcfl-node runs one node of a networked HELCFL deployment: the
// FLCC server or a device client. All nodes derive the same synthetic
// dataset and partition from the shared seed, so a deployment needs no
// data distribution channel.
//
//	# terminal 1: the FLCC (waits for 4 devices, runs 20 rounds)
//	helcfl-node serve -addr :8080 -users 4 -rounds 20
//
//	# terminals 2..5: the devices
//	helcfl-node client -server http://localhost:8080 -user 0 -users 4
//	helcfl-node client -server http://localhost:8080 -user 1 -users 4
//	...
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"helcfl/internal/core"
	"helcfl/internal/dataset"
	"helcfl/internal/deploy"
	"helcfl/internal/device"
	"helcfl/internal/fl"
	"helcfl/internal/nn"
	"helcfl/internal/obs/span"
	"helcfl/internal/selection"
	"helcfl/internal/wireless"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "helcfl-node:", err)
		os.Exit(1)
	}
}

// sharedSpec is the architecture every node builds.
func sharedSpec() nn.ModelSpec {
	return nn.ModelSpec{Kind: "mlp", InC: 3, H: 8, W: 8, Classes: 10, Hidden: []int{64}}
}

// sharedData regenerates the deployment's dataset and per-user shards from
// the shared seed.
func sharedData(users int, seed int64) (*dataset.Synth, []*dataset.Dataset) {
	synth := dataset.GenerateSynth(dataset.SynthConfig{
		Classes: 10, C: 3, H: 8, W: 8,
		TrainN: 40 * users, TestN: 400, Noise: 1.2, Seed: seed,
	})
	part := dataset.PartitionIID(synth.Train, users, rand.New(rand.NewSource(seed+1)))
	return synth, dataset.UserDatasets(synth.Train, part)
}

func run(args []string) (retErr error) {
	if len(args) == 0 {
		return fmt.Errorf("usage: helcfl-node <serve|client> [flags]")
	}
	mode := args[0]
	fs := flag.NewFlagSet(mode, flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "serve: listen address")
	server := fs.String("server", "http://localhost:8080", "client: FLCC URL")
	users := fs.Int("users", 4, "fleet size (must match on all nodes)")
	user := fs.Int("user", 0, "client: this device's index")
	rounds := fs.Int("rounds", 20, "serve: round budget")
	seed := fs.Int64("seed", 1, "shared data seed (must match on all nodes)")
	eta := fs.Float64("eta", 0.7, "serve: HELCFL decay coefficient")
	frac := fs.Float64("fraction", 0.5, "serve: selection fraction C")
	retries := fs.Int("retries", 5, "client: extra attempts per request on transient failures")
	backoff := fs.Duration("backoff", 100*time.Millisecond, "client: base retry backoff (doubles per retry, jittered)")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "client: per-attempt HTTP timeout (0 disables)")
	reconnects := fs.Int("reconnects", 5, "client: server outages to survive by re-registering (e.g. an FLCC restarting from checkpoint)")
	deadline := fs.Duration("round-deadline", 0, "serve: straggler deadline closing rounds with a partial quorum (0 waits for every upload)")
	quorum := fs.Float64("quorum", 0.5, "serve: fraction of the selected cohort required for a partial aggregation")
	ckptDir := fs.String("checkpoint-dir", "", "serve: directory for durable snapshots + upload WAL (empty disables)")
	resume := fs.Bool("resume", false, "serve: restore the campaign from -checkpoint-dir (fresh start if empty)")
	traceOut := fs.String("trace-out", "", "stream this node's spans as JSONL to this file (Helcfl-Trace stitches nodes; serve also mounts /debug/flightrec)")
	verbose := fs.Bool("v", false, "serve: log every request")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}

	// Each node gets its own recorder and trace ID derived from the shared
	// seed; the Helcfl-Trace header stitches the per-node JSONL files back
	// into cross-process rounds (concatenate them into helcfl-inspect trace).
	var rec *span.Recorder
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		jl := span.NewJSONL(f)
		id := uint64(*seed + 1000 + int64(*user))
		if mode == "serve" {
			id = uint64(*seed + 100)
		}
		rec = span.NewRecorder(id, span.Options{Exporter: jl})
		defer func() {
			if err := errors.Join(jl.Flush(), f.Close()); err != nil && retErr == nil {
				retErr = fmt.Errorf("trace-out: %w", err)
			}
		}()
	}
	// SIGINT/SIGTERM end the node cleanly: the server drains and writes a
	// final checkpoint, the client stops between requests.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	switch mode {
	case "serve":
		var logf deploy.Logf
		if *verbose {
			logf = log.Printf
		}
		srv, err := deploy.NewServer(deploy.ServerConfig{
			Spec:          sharedSpec(),
			Seed:          *seed + 100,
			ExpectedUsers: *users,
			Rounds:        *rounds,
			RoundDeadline: *deadline,
			Quorum:        *quorum,
			CheckpointDir: *ckptDir,
			Resume:        *resume,
			Trace:         rec,
			NewPlanner: func(devs []*device.Device) (fl.Planner, error) {
				bits := nn.ModelBits(sharedSpec().Build(rand.New(rand.NewSource(*seed + 100))))
				return selection.NewHELCFL(devs, wireless.DefaultChannel(), bits, core.Params{
					Eta: *eta, Fraction: *frac, StepsPerRound: 1, Clamp: true,
				})
			},
			Log: logf,
		})
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Addr: *addr, Handler: srv}
		errCh := make(chan error, 1)
		go func() {
			if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				errCh <- err
			}
		}()
		fmt.Printf("FLCC listening on %s (fleet %d, %d rounds; /metrics, /healthz and /debug/pprof/ live)\n", *addr, *users, *rounds)
		select {
		case err := <-errCh:
			return err
		case <-ctx.Done():
		}
		// Graceful handoff: stop accepting work and drain in-flight requests
		// (any upload that gets its 204 is already fsynced in the WAL), then
		// persist a final snapshot so `-resume` picks up exactly here.
		fmt.Println("FLCC shutting down: draining requests and writing final checkpoint")
		drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if err := srv.CheckpointNow(); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		srv.Close()
		return nil

	case "client":
		if *user < 0 || *user >= *users {
			return fmt.Errorf("user %d outside fleet of %d", *user, *users)
		}
		synth, shards := sharedData(*users, *seed)
		_ = synth
		rng := rand.New(rand.NewSource(*seed + int64(*user) + 7))
		c, err := deploy.NewClient(deploy.ClientConfig{
			BaseURL: *server,
			Info: deploy.RegisterRequest{
				User:        *user,
				NumSamples:  shards[*user].N(),
				FMin:        device.DefaultFMin,
				FMax:        device.FMaxLow + (device.FMaxHigh-device.FMaxLow)*rng.Float64(),
				TxPower:     0.2,
				ChannelGain: 0.5 + rng.Float64(),
			},
			Data:           shards[*user],
			Spec:           sharedSpec(),
			LR:             0.4,
			LocalSteps:     1,
			PollInterval:   50 * time.Millisecond,
			MaxRetries:     *retries,
			BaseBackoff:    *backoff,
			RequestTimeout: *reqTimeout,
			Reconnects:     *reconnects,
			Trace:          rec,
		})
		if err != nil {
			return err
		}
		fmt.Printf("device %d joining %s with %d samples\n", *user, *server, shards[*user].N())
		if err := c.RunContext(ctx); err != nil {
			// A signal is a clean exit, not a failure: the server keeps the
			// device's registration and dedups its uploads if it rejoins.
			if errors.Is(err, context.Canceled) && ctx.Err() != nil {
				fmt.Printf("device %d interrupted after %d trained rounds\n", *user, c.RoundsTrained)
				return nil
			}
			return err
		}
		fmt.Printf("device %d done: trained %d rounds\n", *user, c.RoundsTrained)
		return nil

	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
}
