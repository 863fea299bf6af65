package main

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"

	"adassure/internal/attacks"
	"adassure/internal/control"
	"adassure/internal/core"
	"adassure/internal/fusion"
	"adassure/internal/geom"
	"adassure/internal/obs"
	"adassure/internal/planner"
	"adassure/internal/sensors"
	"adassure/internal/sim"
	"adassure/internal/trace"
	"adassure/internal/track"
	"adassure/internal/vehicle"
)

// The tick ledger times every layer of the simulator's control tick from
// outside: sim.Run exposes no per-layer hooks, so each cell is simulated
// twice and its layers are then replayed from the captured inputs.
//
//  1. A plain sim.Run gives the tick's wall time.
//  2. An instrumented sim.Run records the frames, captures every sensor
//     reading and command through identity Faults hooks, and times the
//     controllers in the loop through identity WrapLateral/WrapSpeed
//     wrappers (the only layer timed in place).
//  3. The other layers are replayed call for call: actuator attacks, the
//     plant, sensor polling plus sensor attacks, fusion, the follower
//     projections, the speed profile, path geometry, the monitor and the
//     trace column appends. Every replay is checked bit-for-bit against
//     what the instrumented run recorded, so the ledger times the same
//     work the simulator did.
//
// Whatever the named layers do not cover is reported as sim.other_ns.

// Simulator defaults the replay reproduces (sim.Config zero values).
const (
	engineDT     = 0.01
	controlEvery = 5
	controlDT    = engineDT * controlEvery
	initialSpeed = 1.0
)

// cell is one simulation the ledger drives.
type cell struct {
	track      *track.Track
	controller string
	class      attacks.Class // "" or ClassNone for a clean run
	window     attacks.Window
	seed       int64
	duration   float64
	// obs attaches a metrics registry, as the scenario service does for
	// every run it executes.
	obs bool
}

func (c cell) campaign() (attacks.Campaign, error) {
	if c.class == "" || c.class == attacks.ClassNone {
		return attacks.Campaign{}, nil
	}
	return attacks.Standard(c.class, c.window, c.seed)
}

func (c cell) monitor() *core.Monitor {
	m := core.NewCatalogMonitor(catalogConfig)
	if c.obs {
		m.Attach(obs.NewRegistry())
	}
	return m
}

func (c cell) config() (sim.Config, error) {
	camp, err := c.campaign()
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.Config{
		Track:      c.track,
		Controller: c.controller,
		Seed:       c.seed,
		Duration:   c.duration,
		Campaign:   camp,
		Monitor:    core.NewCatalogMonitor(catalogConfig),
	}
	if c.obs {
		cfg.Obs = obs.NewRegistry()
	}
	return cfg, nil
}

func (c cell) String() string {
	return fmt.Sprintf("%s/%s/%s/seed%d", c.track.Name(), c.controller, c.class, c.seed)
}

// timedLateral is an identity lateral-controller wrapper that records one
// span per Steer call.
type timedLateral struct {
	control.Lateral
	log    *spanLog
	parent int
}

func (w *timedLateral) Steer(est fusion.Estimate, path geom.Path, dt float64) float64 {
	id := w.log.open("control.steer", w.parent)
	v := w.Lateral.Steer(est, path, dt)
	w.log.close(id)
	return v
}

// timedSpeed is timedLateral for the longitudinal controller.
type timedSpeed struct {
	control.Longitudinal
	log    *spanLog
	parent int
}

func (w *timedSpeed) Accel(cur, target, dt float64) float64 {
	id := w.log.open("control.accel", w.parent)
	v := w.Longitudinal.Accel(cur, target, dt)
	w.log.close(id)
	return v
}

// captured holds the inputs the instrumented run's identity hooks saw.
type captured struct {
	gnss []sensors.GNSSFix
	imu  []sensors.IMUReading
	odom []sensors.OdomReading
	cmds []vehicle.Command
}

// cellOutcome is what one ledger cell contributes to the totals.
type cellOutcome struct {
	ticks, violations int
}

// runCell simulates and replays one cell, recording spans into log under
// a "cell" root. A replay that diverges from the recorded run is an error.
func runCell(c cell, log *spanLog) (cellOutcome, error) {
	root := log.open("cell", -1)
	defer log.close(root)

	cfg, err := c.config()
	if err != nil {
		return cellOutcome{}, err
	}
	id := log.open("sim.run", root)
	plain, err := sim.Run(cfg)
	log.close(id)
	if err != nil {
		return cellOutcome{}, err
	}

	cfg, err = c.config()
	if err != nil {
		return cellOutcome{}, err
	}
	cfg.RecordFrames = true
	cp := &captured{}
	cfg.Faults = &sim.FaultSet{
		GNSS: func(f sensors.GNSSFix, _ float64) (sensors.GNSSFix, bool) {
			cp.gnss = append(cp.gnss, f)
			return f, true
		},
		IMU: func(r sensors.IMUReading, _ float64) (sensors.IMUReading, bool) {
			cp.imu = append(cp.imu, r)
			return r, true
		},
		Odom: func(r sensors.OdomReading, _ float64) (sensors.OdomReading, bool) {
			cp.odom = append(cp.odom, r)
			return r, true
		},
		Actuator: func(cmd vehicle.Command, _ float64) vehicle.Command {
			cp.cmds = append(cp.cmds, cmd)
			return cmd
		},
	}
	simID := log.open("sim.run.traced", root)
	cfg.WrapLateral = func(l control.Lateral) control.Lateral { return &timedLateral{Lateral: l, log: log, parent: simID} }
	cfg.WrapSpeed = func(l control.Longitudinal) control.Longitudinal {
		return &timedSpeed{Longitudinal: l, log: log, parent: simID}
	}
	traced, err := sim.Run(cfg)
	log.close(simID)
	if err != nil {
		return cellOutcome{}, err
	}
	if traced.Steps != plain.Steps || traced.Final != plain.Final || !reflect.DeepEqual(traced.Violations, plain.Violations) {
		return cellOutcome{}, fmt.Errorf("cell %s: instrumented run diverged from the plain run", c)
	}
	if err := replay(c, log, root, plain, traced, cp); err != nil {
		return cellOutcome{}, fmt.Errorf("cell %s: %w", c, err)
	}
	return cellOutcome{ticks: plain.Steps, violations: len(plain.Violations)}, nil
}

// replay re-executes every layer of the recorded run from its captured
// inputs, one span per layer, and checks each against the recording.
func replay(c cell, log *spanLog, root int, plain, traced *sim.Result, cp *captured) error {
	frames := traced.Frames
	nEngine := int(math.Round(traced.SimTime / engineDT))
	if len(frames) != traced.Steps || len(cp.cmds) != len(frames) || nEngine != len(frames)*controlEvery {
		return fmt.Errorf("recording shape: %d frames, %d commands, %d engine steps", len(frames), len(cp.cmds), nEngine)
	}
	camp, err := c.campaign()
	if err != nil {
		return err
	}
	params := vehicle.ShuttleParams()
	path := c.track.Path()
	start := c.track.StartPose()

	// Actuator attacks turn each requested command into the executed one.
	exec := make([]vehicle.Command, len(cp.cmds))
	id := log.open("attacks.actuator", root)
	for k, cmd := range cp.cmds {
		if camp.Actuator != nil {
			cmd = camp.Actuator.Apply(cmd, frames[k].T)
		}
		exec[k] = cmd
	}
	log.close(id)

	// Plant: five physics sub-steps per control tick.
	truth := make([]vehicle.State, nEngine+1)
	truth[0] = vehicle.State{X: start.Pos.X, Y: start.Pos.Y, Heading: start.Heading, Speed: initialSpeed}
	model := vehicle.NewKinematic(params)
	id = log.open("vehicle", root)
	cmd := vehicle.Command{}
	for step := 1; step <= nEngine; step++ {
		truth[step] = model.Step(truth[step-1], cmd, engineDT)
		if step%controlEvery == 0 {
			cmd = exec[step/controlEvery-1]
		}
	}
	log.close(id)
	if truth[nEngine] != traced.Final {
		return errors.New("plant replay diverged")
	}

	// Sensors plus sensor attacks; delivered readings are kept per engine
	// step for the fusion replay.
	gnss := sensors.NewGNSS(sensors.GNSSConfig{}, c.seed*7+1)
	imu := sensors.NewIMU(sensors.IMUConfig{}, c.seed*7+2)
	odom := sensors.NewOdometer(sensors.OdomConfig{}, c.seed*7+3)
	type delivered struct{ imu, odom, gnss int } // end offsets after each step
	ends := make([]delivered, nEngine+1)
	dIMU := make([]sensors.IMUReading, 0, len(cp.imu))
	dOdom := make([]sensors.OdomReading, 0, len(cp.odom))
	dGNSS := make([]sensors.GNSSFix, 0, len(cp.gnss))
	var ki, ko, kg, mismatch int
	id = log.open("sensors", root)
	for step := 1; step <= nEngine; step++ {
		t := float64(step) * engineDT
		for _, r := range imu.Poll(truth[step], t) {
			if ki >= len(cp.imu) || r != cp.imu[ki] {
				mismatch++
			}
			ki++
			if camp.IMU != nil {
				var ok bool
				if r, ok = camp.IMU.Apply(r, t); !ok {
					continue
				}
			}
			dIMU = append(dIMU, r)
		}
		for _, r := range odom.Poll(truth[step], t) {
			if ko >= len(cp.odom) || r != cp.odom[ko] {
				mismatch++
			}
			ko++
			if camp.Odom != nil {
				var ok bool
				if r, ok = camp.Odom.Apply(r, t); !ok {
					continue
				}
			}
			dOdom = append(dOdom, r)
		}
		for _, f := range gnss.Poll(truth[step], t) {
			if kg >= len(cp.gnss) || f != cp.gnss[kg] {
				mismatch++
			}
			kg++
			if camp.GNSS != nil {
				var ok bool
				if f, ok = camp.GNSS.Apply(f, t); !ok {
					continue
				}
			}
			dGNSS = append(dGNSS, f)
		}
		ends[step] = delivered{len(dIMU), len(dOdom), len(dGNSS)}
	}
	log.close(id)
	if mismatch != 0 || ki != len(cp.imu) || ko != len(cp.odom) || kg != len(cp.gnss) {
		return fmt.Errorf("sensor replay diverged (%d mismatched readings)", mismatch)
	}

	// Fusion: EKF and dead reckoner over the delivered readings, the
	// estimate read at every control tick.
	ekf := fusion.NewEKF(fusion.EKFConfig{}, 0, start, initialSpeed)
	dr := fusion.NewDeadReckoner(0, start, initialSpeed)
	est := make([]fusion.Estimate, len(frames))
	nis := make([]float64, len(frames))
	id = log.open("fusion", root)
	for step := 1; step <= nEngine; step++ {
		prev := ends[step-1]
		for _, r := range dIMU[prev.imu:ends[step].imu] {
			ekf.PredictIMU(r)
			dr.StepIMU(r)
		}
		for _, r := range dOdom[prev.odom:ends[step].odom] {
			ekf.UpdateOdom(r)
			dr.ObserveOdom(r)
		}
		for _, f := range dGNSS[prev.gnss:ends[step].gnss] {
			ekf.UpdateGNSS(f)
		}
		if step%controlEvery == 0 {
			k := step/controlEvery - 1
			est[k] = ekf.Estimate()
			nis[k], _ = ekf.LastNIS()
		}
	}
	log.close(id)
	for k, f := range frames {
		e := est[k]
		if e.Pose.Pos.X != f.EstX || e.Pose.Pos.Y != f.EstY || e.Pose.Heading != f.EstHeading || e.Speed != f.EstSpeed || nis[k] != f.NIS {
			return fmt.Errorf("fusion replay diverged at t=%g", f.T)
		}
	}

	// Planner: the follower projections of the estimate and of the truth.
	follower, err := planner.NewFollower(path)
	if err != nil {
		return err
	}
	truthFollower, err := planner.NewFollower(path)
	if err != nil {
		return err
	}
	arc := make([]float64, len(frames))
	cte := make([]float64, len(frames))
	trueCTE := make([]float64, len(frames))
	id = log.open("planner.project", root)
	for k, f := range frames {
		arc[k], cte[k] = follower.Project(geom.V(f.EstX, f.EstY))
		_, trueCTE[k] = truthFollower.Project(geom.V(f.TrueX, f.TrueY))
	}
	log.close(id)
	for k, f := range frames {
		if arc[k] != f.RefS || cte[k] != f.CTE || trueCTE[k] != f.TrueCTE {
			return fmt.Errorf("projection replay diverged at t=%g", f.T)
		}
	}

	// Planner: the speed profile at the projection and half a second ahead.
	profile, err := planner.NewSpeedProfileForTrack(c.track, params)
	if err != nil {
		return err
	}
	target := make([]float64, len(frames))
	id = log.open("planner.speed", root)
	for k, f := range frames {
		target[k] = math.Min(profile.TargetAt(f.RefS), profile.TargetAt(f.RefS+f.EstSpeed*0.6))
	}
	log.close(id)
	for k, f := range frames {
		if target[k] != f.TargetSpeed {
			return fmt.Errorf("speed-profile replay diverged at t=%g", f.T)
		}
	}

	// Geometry: heading at the projection and the curvature band around it.
	heading := make([]float64, len(frames))
	band := make([][3]float64, len(frames))
	id = log.open("geom.curvature", root)
	for k, f := range frames {
		s := f.RefS
		heading[k] = path.HeadingAt(s)
		kappa := path.CurvatureAt(s)
		lo, hi := kappa, kappa
		for d := -2.0; d <= 12.0; d += 1.0 {
			v := path.CurvatureAt(s + d)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		band[k] = [3]float64{kappa, lo, hi}
	}
	log.close(id)
	for k, f := range frames {
		if geom.AngleDiff(f.EstHeading, heading[k]) != f.HeadingErr || band[k] != [3]float64{f.Curvature, f.CurvAheadMin, f.CurvAheadMax} {
			return fmt.Errorf("geometry replay diverged at t=%g", f.T)
		}
	}

	// Monitor: the full catalog over the recorded frames.
	mon := c.monitor()
	id = log.open("core.monitor", root)
	for _, f := range frames {
		mon.Step(f)
	}
	log.close(id)
	if !reflect.DeepEqual(mon.Violations(), plain.Violations) {
		return errors.New("monitor replay diverged")
	}

	// Trace: the nineteen column appends per tick.
	tr := trace.New()
	tr.Reserve(int(math.Ceil(c.duration/controlDT)) + 1)
	cols := make([]*trace.Column, len(traceSignals))
	for i, name := range traceSignals {
		cols[i] = tr.Column(name)
	}
	id = log.open("trace", root)
	for _, f := range frames {
		t := f.T
		cols[0].MustAppend(t, f.TrueX)
		cols[1].MustAppend(t, f.TrueY)
		cols[2].MustAppend(t, f.EstX)
		cols[3].MustAppend(t, f.EstY)
		cols[4].MustAppend(t, f.GNSSX)
		cols[5].MustAppend(t, f.GNSSY)
		cols[6].MustAppend(t, f.TrueCTE)
		cols[7].MustAppend(t, f.CTE)
		cols[8].MustAppend(t, f.TrueSpeed)
		cols[9].MustAppend(t, f.TargetSpeed)
		cols[10].MustAppend(t, f.CmdSteer)
		cols[11].MustAppend(t, f.CmdAccel)
		cols[12].MustAppend(t, f.NIS)
		cols[13].MustAppend(t, f.HeadingErr)
		cols[14].MustAppend(t, f.EstHeading)
		cols[15].MustAppend(t, f.IMUHeading)
		cols[16].MustAppend(t, f.Curvature)
		cols[17].MustAppend(t, f.Progress)
		cols[18].MustAppend(t, 0) // fallback: the ledger cells run unguarded
	}
	log.close(id)
	for i, name := range traceSignals {
		if !reflect.DeepEqual(cols[i].Values(), plain.Trace.Column(name).Values()) {
			return fmt.Errorf("trace replay diverged on %s", name)
		}
	}
	return nil
}

// traceSignals are the columns the step loop records, in its order.
var traceSignals = []string{
	"true_x", "true_y", "est_x", "est_y", "gnss_x", "gnss_y",
	"cte_true", "cte_est", "speed", "target_speed", "steer", "accel_cmd",
	"nis", "heading_err", "est_heading", "imu_heading", "curvature",
	"progress", "fallback",
}

// tickLayers maps each per-tick layer metric to the spans it sums.
var tickLayers = []struct {
	metric string
	spans  []string
}{
	{"planner.project_ns", []string{"planner.project"}},
	{"planner.speed_ns", []string{"planner.speed"}},
	{"geom.curvature_ns", []string{"geom.curvature"}},
	{"control.ns", []string{"control.steer", "control.accel"}},
	{"fusion.ns", []string{"fusion"}},
	{"sensors.ns", []string{"sensors", "attacks.actuator"}},
	{"vehicle.ns", []string{"vehicle"}},
	{"core.monitor_ns", []string{"core.monitor"}},
	{"trace.ns", []string{"trace"}},
}

// runLedger drives the cells across workers goroutines (the harness's
// pool size, so layers are timed under the same contention as the
// workload) and fills the per-tick layer metrics. Each cell is one
// attempted check.
func runLedger(cells []cell, workers int, tr *tracer, parent int, rep *report) {
	type job struct {
		i int
		c cell
	}
	jobs := make(chan job)
	outs := make([]cellOutcome, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				log := tr.log(8192)
				outs[j.i], errs[j.i] = runCell(j.c, log)
				tr.merge(log, parent)
			}
		}()
	}
	for i, c := range cells {
		jobs <- job{i, c}
	}
	close(jobs)
	wg.Wait()

	var ticks, violations int
	for i := range cells {
		rep.check(errs[i])
		ticks += outs[i].ticks
		violations += outs[i].violations
	}
	if ticks == 0 {
		return
	}
	times := selfTimes(tr.spans)
	self := func(name string) float64 {
		if lt := times[name]; lt != nil {
			return float64(lt.self)
		}
		return 0
	}
	total := func(name string) float64 {
		if lt := times[name]; lt != nil {
			return float64(lt.total)
		}
		return 0
	}
	n := float64(ticks)
	tick := total("sim.run") / n
	var sum float64
	for _, l := range tickLayers {
		var v float64
		for _, s := range l.spans {
			v += self(s)
		}
		rep.metrics[l.metric] = v / n
		rep.samples[l.metric] = ticks
		sum += v / n
	}
	rep.metrics["sim.tick_ns"] = tick
	rep.metrics["sim.other_ns"] = tick - sum
	rep.metrics["sim.ledger_share"] = sum / tick
	rep.metrics["sim.trace_overhead"] = total("sim.run.traced")/total("sim.run") - 1
	rep.metrics["sim.ticks"] = n
	rep.metrics["core.violations"] = float64(violations)
	rep.samples["sim.tick_ns"] = ticks
	rep.note("tick ledger: %d cells, %d ticks; named layers cover %.1f%% of sim.tick_ns (%.0f of %.0f ns), sim.other_ns %.0f ns",
		len(cells), ticks, 100*sum/tick, sum, tick, tick-sum)
}
