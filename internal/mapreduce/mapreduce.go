// Package mapreduce is a miniature in-process map-reduce runtime standing
// in for the paper's parallel setups: Local for one machine (the NUMA
// machine of setup C runs as Local at its core counts) and Yarn for the
// Hadoop/YARN cluster of setup B. It reproduces the costs that matter when comparing a distributed miner
// against sequential k/2-hop:
//
//   - bounded parallelism: a worker pool of Cores goroutines per simulated
//     node, tasks queued like containers;
//   - shuffle cost: task inputs and outputs cross a gob-encoded boundary,
//     paying real serialisation work, as records do between cluster nodes;
//   - scheduling overhead: a configurable latency per task launch, modelling
//     container allocation (the paper notes YARN allocation overhead).
//
// DCM and SPARE run their map and reduce phases on this runtime; node and
// core counts are the x-axes of figures 7d–7g.
package mapreduce

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"repro/internal/pool"
)

// Cluster describes the simulated execution substrate.
type Cluster struct {
	// Nodes is the number of machines; Cores the workers per machine.
	Nodes int
	Cores int
	// TaskLatency is charged once per task, modelling container allocation
	// and code shipping. Zero for the "single machine, in-process" setups.
	TaskLatency time.Duration
	// Serialize forces task inputs/outputs through gob encoding, modelling
	// the network shuffle. Single-machine setups leave it off.
	Serialize bool
}

// Local returns a single-machine cluster with the given core count.
func Local(cores int) Cluster { return Cluster{Nodes: 1, Cores: cores} }

// Yarn returns a multi-node cluster with per-task scheduling latency and
// serialised shuffles, mirroring the paper's setup B.
func Yarn(nodes, coresPerNode int) Cluster {
	return Cluster{Nodes: nodes, Cores: coresPerNode, TaskLatency: 2 * time.Millisecond, Serialize: true}
}

// Workers returns the total worker count of the cluster.
func (c Cluster) Workers() int {
	n := c.Nodes * c.Cores
	if n < 1 {
		return 1
	}
	return n
}

// Run executes one task per input on the cluster and collects the outputs
// in input order. In and Out must be gob-encodable when Serialize is on.
// The tasks fan out over pool.ForEach with the cluster's worker count: on
// a failure no further task starts, and the error of the lowest failing
// task is returned.
func Run[In any, Out any](c Cluster, inputs []In, task func(In) (Out, error)) ([]Out, error) {
	outs := make([]Out, len(inputs))
	err := pool.ForEach(c.Workers(), len(inputs), func(i int) error {
		if c.TaskLatency > 0 {
			time.Sleep(c.TaskLatency)
		}
		in := inputs[i]
		if c.Serialize {
			if err := roundTrip(&in); err != nil {
				return fmt.Errorf("mapreduce: task %d: %w", i, err)
			}
		}
		out, err := task(in)
		if err == nil && c.Serialize {
			err = roundTrip(&out)
		}
		if err != nil {
			return fmt.Errorf("mapreduce: task %d: %w", i, err)
		}
		outs[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// roundTrip gob-encodes and decodes v in place, charging the serialisation
// cost a real shuffle would pay.
func roundTrip[T any](v *T) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	var out T
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	*v = out
	return nil
}
