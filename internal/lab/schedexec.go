package lab

import (
	"time"

	"picoprobe/internal/compute"
	"picoprobe/internal/scheduler"
)

// SchedExecutor executes tasks under the batch scheduler with the
// function's cost model. With RunReal set it also executes the real
// function body (results become available at the simulated completion
// instant).
type SchedExecutor struct {
	Sched *scheduler.Scheduler
	// RunReal executes Function.Run in addition to modeling its cost.
	RunReal bool
}

// Exec implements compute.Executor.
func (e *SchedExecutor) Exec(fn compute.Function, args compute.Args, done func(compute.ExecReport)) {
	var dur time.Duration
	if fn.Cost != nil {
		dur = fn.Cost(args)
	}
	err := e.Sched.Submit(fn.Env, dur, func(rep scheduler.JobReport) {
		out := compute.ExecReport{
			Started:     rep.Started,
			NodeID:      rep.NodeID,
			Provisioned: rep.Provisioned,
			Warmed:      rep.Warmed,
		}
		if e.RunReal && fn.Run != nil {
			out.Result, out.Err = fn.Run(args)
		} else {
			out.Result = compute.Result{}
		}
		done(out)
	})
	if err != nil {
		done(compute.ExecReport{Err: err, NodeID: -1})
	}
}
