package rpcmr

import (
	"context"
	"fmt"
	"strconv"
	"testing"
	"time"
)

// TestStressManyTasksWithChaos runs a 200-task job over 6 workers, two of
// which crash while holding tasks partway through; lease reassignment must
// carry the job to a correct result.
func TestStressManyTasksWithChaos(t *testing.T) {
	ensureJobs()
	master, err := NewMaster(MasterConfig{
		SplitSize: 2, // one two-word doc per task
		TaskLease: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	for i := 0; i < 6; i++ {
		cfg := WorkerConfig{
			MasterAddr:   master.Addr(),
			ID:           fmt.Sprintf("chaos-%d", i),
			PollInterval: 2 * time.Millisecond,
		}
		if i < 2 {
			cfg.VanishAfterTasks = 5 // the first two die early, holding a task
		}
		w, err := NewWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		go func() { _ = w.Run(context.Background()) }()
	}

	docs := make([]string, 200)
	for i := range docs {
		docs[i] = fmt.Sprintf("word%d common", i%13)
	}
	input := wordsInput(docs...)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := master.Run(ctx, JobSpec{Name: "wordcount", Reducers: 4}, input)
	if err != nil {
		t.Fatal(err)
	}
	got := wordCounts(t, res)
	if got["common"] != 200 {
		t.Errorf("common = %d, want 200", got["common"])
	}
	for i := 0; i < 13; i++ {
		key := "word" + strconv.Itoa(i)
		if n := got[key]; n < 15 || n > 16 {
			t.Errorf("%s = %d, want 15..16", key, n)
		}
	}
}

// TestStressSequentialJobsAfterChaos verifies the master stays usable for
// later jobs after a chaotic one.
func TestStressSequentialJobsAfterChaos(t *testing.T) {
	master, _, _ := newCluster(t, MasterConfig{SplitSize: 2, TaskLease: 300 * time.Millisecond}, 3,
		WorkerConfig{PollInterval: 2 * time.Millisecond})
	healthyInput := wordsInput("x y", "y z", "z x")
	for round := 0; round < 5; round++ {
		res, err := master.Run(context.Background(), JobSpec{Name: "wordcount", Reducers: 2}, healthyInput)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got := wordCounts(t, res)
		for _, w := range []string{"x", "y", "z"} {
			if got[w] != 2 {
				t.Fatalf("round %d: %s = %d, want 2 (%v)", round, w, got[w], got)
			}
		}
	}
}
