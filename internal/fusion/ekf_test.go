package fusion

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"adassure/internal/geom"
	"adassure/internal/sensors"
)

// simulateStraight runs the EKF against synthetic truth moving along +x at
// constant speed, with the given GNSS noise and an optional spoof offset
// applied from spoofT onward. Returns the filter and the final truth pos.
func simulateStraight(cfg EKFConfig, seed int64, dur, speed, gnssNoise float64, spoof geom.Vec2, spoofT float64) (*EKF, geom.Vec2) {
	f := NewEKF(cfg, 0, geom.NewPose(0, 0, 0), speed)
	rng := rand.New(rand.NewSource(seed))
	const imuDT = 0.01
	gnssEvery := 10 // every 10 IMU steps → 10 Hz
	var truth geom.Vec2
	step := 0
	for t := imuDT; t <= dur; t += imuDT {
		truth = geom.V(speed*t, 0)
		f.PredictIMU(sensors.IMUReading{T: t, YawRate: 0, Accel: 0, Heading: 0, Valid: true})
		step++
		if step%gnssEvery == 0 {
			pos := truth.Add(geom.V(rng.NormFloat64()*gnssNoise, rng.NormFloat64()*gnssNoise))
			if spoofT > 0 && t >= spoofT {
				pos = pos.Add(spoof)
			}
			f.UpdateGNSS(sensors.GNSSFix{T: t, Pos: pos, Valid: true})
		}
		if step%2 == 0 {
			f.UpdateOdom(sensors.OdomReading{T: t, Speed: speed + rng.NormFloat64()*0.02, Valid: true})
		}
	}
	return f, truth
}

func TestEKFConvergesOnCleanData(t *testing.T) {
	f, truth := simulateStraight(EKFConfig{}, 1, 20, 5, 0.15, geom.Vec2{}, 0)
	e := f.Estimate()
	if d := e.Pose.Pos.Dist(truth); d > 0.3 {
		t.Errorf("position error %.3f m after 20 s clean run", d)
	}
	if math.Abs(e.Speed-5) > 0.1 {
		t.Errorf("speed estimate %.3f, want ~5", e.Speed)
	}
	if math.Abs(e.Pose.Heading) > 0.05 {
		t.Errorf("heading estimate %.3f, want ~0", e.Pose.Heading)
	}
	if e.PosStdDev > 0.5 || e.PosStdDev <= 0 {
		t.Errorf("position stddev %.3f implausible", e.PosStdDev)
	}
}

func TestEKFCovariancePSDAndBounded(t *testing.T) {
	f, _ := simulateStraight(EKFConfig{}, 2, 30, 4, 0.15, geom.Vec2{}, 0)
	p := f.Covariance()
	for i := 0; i < 4; i++ {
		if p.At(i, i) <= 0 {
			t.Errorf("covariance diagonal %d = %g, must be positive", i, p.At(i, i))
		}
		if p.At(i, i) > 10 {
			t.Errorf("covariance diagonal %d = %g diverged", i, p.At(i, i))
		}
		for j := 0; j < 4; j++ {
			if math.Abs(p.At(i, j)-p.At(j, i)) > 1e-9 {
				t.Error("covariance asymmetric")
			}
		}
	}
	// 2x2 position block must be PSD: det ≥ 0 and trace ≥ 0.
	det := p.At(0, 0)*p.At(1, 1) - p.At(0, 1)*p.At(1, 0)
	if det < 0 {
		t.Errorf("position covariance block not PSD: det=%g", det)
	}
}

func TestEKFGateRejectsSpoof(t *testing.T) {
	cfg := EKFConfig{GateThreshold: DefaultGate}
	// 5 s of 30 m spoof: the gate holds and the estimate stays near truth.
	f, truth := simulateStraight(cfg, 3, 25, 5, 0.15, geom.V(0, 30), 20)
	e := f.Estimate()
	if d := e.Pose.Pos.Dist(truth); d > 2 {
		t.Errorf("gated filter dragged %.2f m by spoof", d)
	}
	if f.RejectStreak() == 0 {
		t.Error("gate should be rejecting at end of spoofed run")
	}
	nis, accepted := f.LastNIS()
	if accepted || nis < DefaultGate {
		t.Errorf("last spoofed update should be rejected with high NIS, got %g accepted=%v", nis, accepted)
	}
}

func TestEKFGateCreepsUnderSustainedSpoof(t *testing.T) {
	// Documented limitation that motivates the dead-reckoning fallback in
	// the guarded stack: while the gate rejects, the covariance grows
	// (heading is unobserved without GNSS), so after enough sustained
	// spoofing the gate re-accepts and the filter is dragged.
	cfg := EKFConfig{GateThreshold: DefaultGate}
	f, truth := simulateStraight(cfg, 3, 35, 5, 0.15, geom.V(0, 30), 20)
	if d := f.Estimate().Pose.Pos.Dist(truth); d < 5 {
		t.Errorf("expected gate creep after 15 s of spoofing; error only %.2f m", d)
	}
}

func TestEKFUngatedFollowsSpoof(t *testing.T) {
	f, truth := simulateStraight(EKFConfig{}, 3, 30, 5, 0.15, geom.V(0, 30), 20)
	e := f.Estimate()
	// Without the gate the filter is dragged toward the spoofed position.
	if d := e.Pose.Pos.Dist(truth); d < 10 {
		t.Errorf("ungated filter only moved %.2f m under a 30 m spoof", d)
	}
}

func TestEKFNISSpikesAtSpoofOnset(t *testing.T) {
	cfg := EKFConfig{}
	f := NewEKF(cfg, 0, geom.NewPose(0, 0, 0), 5)
	for t0 := 0.01; t0 <= 10; t0 += 0.01 {
		f.PredictIMU(sensors.IMUReading{T: t0, Valid: true})
		if int(t0*100)%10 == 0 {
			f.UpdateGNSS(sensors.GNSSFix{T: t0, Pos: geom.V(5*t0, 0), Valid: true})
		}
	}
	// Spoofed fix 8 m off: NIS must spike far above clean values.
	nis, _ := f.UpdateGNSS(sensors.GNSSFix{T: 10.01, Pos: geom.V(50.05, 8), Valid: true})
	if nis < 50 {
		t.Errorf("NIS at spoof onset = %g, want large", nis)
	}
}

func TestEKFIgnoresInvalidAndStaleReadings(t *testing.T) {
	f := NewEKF(EKFConfig{}, 5, geom.NewPose(1, 2, 0.3), 2)
	before := f.Estimate()
	f.PredictIMU(sensors.IMUReading{T: 4, Valid: true})   // stale
	f.PredictIMU(sensors.IMUReading{T: 6, Valid: false})  // invalid
	f.UpdateGNSS(sensors.GNSSFix{T: 6, Valid: false})     // invalid
	f.UpdateOdom(sensors.OdomReading{T: 6, Valid: false}) // invalid
	after := f.Estimate()
	if before.Pose != after.Pose || before.Speed != after.Speed {
		t.Error("invalid/stale readings perturbed the filter")
	}
}

func TestEKFTurnTracking(t *testing.T) {
	// Truth: circle at constant speed and yaw rate.
	const (
		speed = 4.0
		yaw   = 0.2 // rad/s
		dur   = 30.0
	)
	f := NewEKF(EKFConfig{}, 0, geom.NewPose(0, 0, 0), speed)
	rng := rand.New(rand.NewSource(9))
	r := speed / yaw
	truthAt := func(t float64) geom.Vec2 {
		// Start at origin heading +x, turning left: center (0, r).
		a := yaw * t
		return geom.V(r*math.Sin(a), r-r*math.Cos(a))
	}
	step := 0
	for t0 := 0.01; t0 <= dur; t0 += 0.01 {
		f.PredictIMU(sensors.IMUReading{T: t0, YawRate: yaw + rng.NormFloat64()*0.005, Valid: true})
		step++
		if step%10 == 0 {
			p := truthAt(t0).Add(geom.V(rng.NormFloat64()*0.15, rng.NormFloat64()*0.15))
			f.UpdateGNSS(sensors.GNSSFix{T: t0, Pos: p, Valid: true})
		}
		if step%2 == 0 {
			f.UpdateOdom(sensors.OdomReading{T: t0, Speed: speed + rng.NormFloat64()*0.02, Valid: true})
		}
	}
	if d := f.Estimate().Pose.Pos.Dist(truthAt(dur)); d > 0.5 {
		t.Errorf("turn tracking error %.3f m", d)
	}
}

func TestDeadReckonerStraight(t *testing.T) {
	d := NewDeadReckoner(0, geom.NewPose(0, 0, 0), 5)
	for t0 := 0.01; t0 <= 10; t0 += 0.01 {
		d.StepIMU(sensors.IMUReading{T: t0, YawRate: 0, Accel: 0, Valid: true})
	}
	e := d.Estimate()
	if math.Abs(e.Pose.Pos.X-50) > 0.1 || math.Abs(e.Pose.Pos.Y) > 1e-9 {
		t.Errorf("dead reckoning end = %v, want (50,0)", e.Pose.Pos)
	}
	if !math.IsInf(e.PosStdDev, 1) {
		t.Error("dead reckoner should report unbounded position uncertainty")
	}
}

func TestDeadReckonerResetAndOdom(t *testing.T) {
	d := NewDeadReckoner(0, geom.NewPose(0, 0, 0), 0)
	d.ObserveOdom(sensors.OdomReading{T: 0.1, Speed: 3, Valid: true})
	for t0 := 0.11; t0 < 1.11; t0 += 0.01 {
		d.StepIMU(sensors.IMUReading{T: t0, Valid: true})
	}
	// Reckoner anchored at t=0; first IMU step covers [0, 0.11] and the loop
	// ends at t≈1.11, all at 3 m/s → x ≈ 3.33.
	if math.Abs(d.Estimate().Pose.Pos.X-3.33) > 0.05 {
		t.Errorf("odom-informed reckoning x = %g, want ~3.33", d.Estimate().Pose.Pos.X)
	}
	d.Reset(5, geom.NewPose(100, 0, 0), 1)
	if d.Estimate().Pose.Pos.X != 100 || d.Estimate().T != 5 {
		t.Error("reset did not re-anchor")
	}
}

// TestEKFNISDistribution: on clean data the normalised innovation squared
// is ~χ²(2): mean ≈ 2 and rarely above the 99% gate. This is the statistic
// assertion A10 and the guard's gate rely on.
func TestEKFNISDistribution(t *testing.T) {
	f := NewEKF(EKFConfig{}, 0, geom.NewPose(0, 0, 0), 5)
	rng := rand.New(rand.NewSource(21))
	var sum float64
	var n, above int
	step := 0
	for t0 := 0.01; t0 <= 120; t0 += 0.01 {
		f.PredictIMU(sensors.IMUReading{T: t0, Valid: true})
		step++
		if step%10 == 0 {
			pos := geom.V(5*t0+rng.NormFloat64()*0.2, rng.NormFloat64()*0.2)
			nis, _ := f.UpdateGNSS(sensors.GNSSFix{T: t0, Pos: pos, Valid: true})
			if t0 > 10 { // after convergence
				sum += nis
				n++
				if nis > DefaultGate {
					above++
				}
			}
		}
		if step%2 == 0 {
			f.UpdateOdom(sensors.OdomReading{T: t0, Speed: 5 + rng.NormFloat64()*0.02, Valid: true})
		}
	}
	mean := sum / float64(n)
	if mean < 1.0 || mean > 3.0 {
		t.Errorf("NIS mean = %.2f, want ~2 (χ² with 2 DOF)", mean)
	}
	if frac := float64(above) / float64(n); frac > 0.05 {
		t.Errorf("%.1f%% of clean NIS above the 99%% gate", frac*100)
	}
}

func TestComplementaryTracksStraight(t *testing.T) {
	c := NewComplementary(0, geom.NewPose(0, 0, 0), 5)
	rng := rand.New(rand.NewSource(4))
	step := 0
	var truth geom.Vec2
	for t0 := 0.01; t0 <= 30; t0 += 0.01 {
		truth = geom.V(5*t0, 0)
		c.PredictIMU(sensors.IMUReading{T: t0, Valid: true})
		step++
		if step%10 == 0 {
			c.UpdateGNSS(sensors.GNSSFix{T: t0, Pos: truth.Add(geom.V(rng.NormFloat64()*0.15, rng.NormFloat64()*0.15)), Valid: true})
		}
		if step%2 == 0 {
			c.UpdateOdom(sensors.OdomReading{T: t0, Speed: 5 + rng.NormFloat64()*0.02, Valid: true})
		}
	}
	e := c.Estimate()
	if d := e.Pose.Pos.Dist(truth); d > 0.5 {
		t.Errorf("complementary drifted %.2f m on clean straight", d)
	}
	if math.Abs(e.Speed-5) > 0.1 {
		t.Errorf("speed = %.2f", e.Speed)
	}
	if !math.IsNaN(e.PosStdDev) {
		t.Error("complementary has no covariance; PosStdDev should be NaN")
	}
	if nis, ok := c.LastNIS(); nis != 0 || !ok {
		t.Error("complementary LastNIS should be (0, true)")
	}
	if c.RejectStreak() != 0 {
		t.Error("complementary has no gate")
	}
}

func TestComplementaryComparableToEKFOnStraight(t *testing.T) {
	// On a constant-velocity straight, a well-tuned fixed-gain blend is
	// competitive with the EKF (steady state is where fixed gains shine);
	// the closed-loop advantage of the EKF shows up on manoeuvring runs —
	// see experiment X5. Here we only require comparability.
	run := func(loc Localizer) float64 {
		rng := rand.New(rand.NewSource(11))
		var sumSq float64
		var n int
		step := 0
		for t0 := 0.01; t0 <= 60; t0 += 0.01 {
			truth := geom.V(5*t0, 0)
			loc.PredictIMU(sensors.IMUReading{T: t0, Valid: true})
			step++
			if step%10 == 0 {
				loc.UpdateGNSS(sensors.GNSSFix{T: t0, Pos: truth.Add(geom.V(rng.NormFloat64()*0.2, rng.NormFloat64()*0.2)), Valid: true})
			}
			if step%2 == 0 {
				loc.UpdateOdom(sensors.OdomReading{T: t0, Speed: 5 + rng.NormFloat64()*0.02, Valid: true})
			}
			if t0 > 10 && step%20 == 0 {
				d := loc.Estimate().Pose.Pos.Dist(truth)
				sumSq += d * d
				n++
			}
		}
		return math.Sqrt(sumSq / float64(n))
	}
	ekfRMS := run(NewEKF(EKFConfig{}, 0, geom.NewPose(0, 0, 0), 5))
	compRMS := run(NewComplementary(0, geom.NewPose(0, 0, 0), 5))
	t.Logf("position RMS: ekf %.3f m, complementary %.3f m", ekfRMS, compRMS)
	if ekfRMS > 0.3 || compRMS > 0.3 {
		t.Errorf("localizer RMS out of band: ekf %.3f, complementary %.3f", ekfRMS, compRMS)
	}
	if compRMS > ekfRMS*1.8 || ekfRMS > compRMS*1.8 {
		t.Errorf("localizers should be comparable on a straight: ekf %.3f vs complementary %.3f", ekfRMS, compRMS)
	}
}

// matEKF is the filter as formulated on the allocating Mat operations
// before its arithmetic moved to fixed-size arrays, kept as the
// differential oracle: every predict and update is the textbook matrix
// expression, evaluated with Mul, Add, Sub, T, Symmetrize and Inv.
type matEKF struct {
	cfg          EKFConfig
	x, p         Mat
	t, yawRate   float64
	lastNIS      float64
	lastAccepted bool
	rejectStreak int
}

func newMatEKF(cfg EKFConfig, t0 float64, pose geom.Pose, speed float64) *matEKF {
	cfg.defaults()
	o := &matEKF{cfg: cfg, x: NewMat(4, 1), p: Eye(4), t: t0, lastAccepted: true}
	o.x.Set(0, 0, pose.Pos.X)
	o.x.Set(1, 0, pose.Pos.Y)
	o.x.Set(2, 0, pose.Heading)
	o.x.Set(3, 0, speed)
	s2 := cfg.InitialPosStdDev * cfg.InitialPosStdDev
	o.p.Set(0, 0, s2)
	o.p.Set(1, 1, s2)
	o.p.Set(2, 2, 0.05)
	o.p.Set(3, 3, 0.25)
	return o
}

func (o *matEKF) PredictIMU(r sensors.IMUReading) {
	if !r.Valid || r.T <= o.t {
		return
	}
	dt := r.T - o.t
	o.t = r.T
	o.yawRate = r.YawRate
	th := o.x.At(2, 0)
	v := o.x.At(3, 0)
	thMid := th + r.YawRate*dt/2
	o.x.Set(0, 0, o.x.At(0, 0)+v*math.Cos(thMid)*dt)
	o.x.Set(1, 0, o.x.At(1, 0)+v*math.Sin(thMid)*dt)
	o.x.Set(2, 0, geom.NormalizeAngle(th+r.YawRate*dt))
	o.x.Set(3, 0, math.Max(0, v+r.Accel*dt))
	F := Eye(4)
	F.Set(0, 2, -v*math.Sin(thMid)*dt)
	F.Set(0, 3, math.Cos(thMid)*dt)
	F.Set(1, 2, v*math.Cos(thMid)*dt)
	F.Set(1, 3, math.Sin(thMid)*dt)
	Q := NewMat(4, 4)
	Q.Set(0, 0, o.cfg.PosProcNoise*dt)
	Q.Set(1, 1, o.cfg.PosProcNoise*dt)
	Q.Set(2, 2, o.cfg.HeadingProcNoise*dt)
	Q.Set(3, 3, o.cfg.SpeedProcNoise*dt)
	o.p = F.Mul(o.p).Mul(F.T()).Add(Q).Symmetrize()
}

func (o *matEKF) UpdateGNSS(fix sensors.GNSSFix) (float64, bool) {
	if !fix.Valid {
		return 0, false
	}
	y := NewMat(2, 1)
	y.Set(0, 0, fix.Pos.X-o.x.At(0, 0))
	y.Set(1, 0, fix.Pos.Y-o.x.At(1, 0))
	H := NewMat(2, 4)
	H.Set(0, 0, 1)
	H.Set(1, 1, 1)
	R := NewMat(2, 2)
	r2 := o.cfg.GNSSPosStdDev * o.cfg.GNSSPosStdDev
	R.Set(0, 0, r2)
	R.Set(1, 1, r2)
	Sinv := H.Mul(o.p).Mul(H.T()).Add(R).Inv()
	nis := y.T().Mul(Sinv).Mul(y).At(0, 0)
	o.lastNIS = nis
	if o.cfg.GateThreshold > 0 && nis > o.cfg.GateThreshold {
		o.lastAccepted = false
		o.rejectStreak++
		return nis, false
	}
	o.lastAccepted = true
	o.rejectStreak = 0
	K := o.p.Mul(H.T()).Mul(Sinv)
	o.x = o.x.Add(K.Mul(y))
	o.x.Set(2, 0, geom.NormalizeAngle(o.x.At(2, 0)))
	o.x.Set(3, 0, math.Max(0, o.x.At(3, 0)))
	o.p = Eye(4).Sub(K.Mul(H)).Mul(o.p).Symmetrize()
	return nis, true
}

func (o *matEKF) UpdateOdom(r sensors.OdomReading) {
	if !r.Valid {
		return
	}
	y := NewMat(1, 1)
	y.Set(0, 0, r.Speed-o.x.At(3, 0))
	H := NewMat(1, 4)
	H.Set(0, 3, 1)
	R := NewMat(1, 1)
	R.Set(0, 0, o.cfg.OdomSpeedStdev*o.cfg.OdomSpeedStdev)
	Sinv := H.Mul(o.p).Mul(H.T()).Add(R).Inv()
	K := o.p.Mul(H.T()).Mul(Sinv)
	o.x = o.x.Add(K.Mul(y))
	o.x.Set(3, 0, math.Max(0, o.x.At(3, 0)))
	o.p = Eye(4).Sub(K.Mul(H)).Mul(o.p).Symmetrize()
}

func (o *matEKF) Estimate() Estimate {
	sx := math.Sqrt(math.Max(0, o.p.At(0, 0)))
	sy := math.Sqrt(math.Max(0, o.p.At(1, 1)))
	return Estimate{
		T:         o.t,
		Pose:      geom.Pose{Pos: geom.V(o.x.At(0, 0), o.x.At(1, 0)), Heading: o.x.At(2, 0)},
		Speed:     o.x.At(3, 0),
		YawRate:   o.yawRate,
		PosStdDev: math.Sqrt(sx * sy),
	}
}

// ekfPair drives the filter and its oracle through the same readings and
// fails at the first output that differs in any bit.
type ekfPair struct {
	t   *testing.T
	f   *EKF
	o   *matEKF
	ops int
}

func newEKFPair(t *testing.T, cfg EKFConfig, t0 float64, pose geom.Pose, speed float64) *ekfPair {
	p := &ekfPair{t: t, f: NewEKF(cfg, t0, pose, speed), o: newMatEKF(cfg, t0, pose, speed)}
	p.check("NewEKF")
	return p
}

// step runs one reading through both filters. It reports false once the
// reading made both panic (a singular innovation covariance), after which
// the pair must not be driven further.
func (p *ekfPair) step(what string, filter, oracle func()) bool {
	p.t.Helper()
	p.ops++
	fp, op := panics(filter), panics(oracle)
	if fp != op {
		p.t.Fatalf("op %d %s: filter panicked %v, oracle panicked %v", p.ops, what, fp, op)
	}
	if fp {
		return false
	}
	p.check(what)
	return true
}

func panics(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

func (p *ekfPair) predict(r sensors.IMUReading) bool {
	p.t.Helper()
	return p.step(fmt.Sprintf("PredictIMU(%+v)", r), func() { p.f.PredictIMU(r) }, func() { p.o.PredictIMU(r) })
}

func (p *ekfPair) odom(r sensors.OdomReading) bool {
	p.t.Helper()
	return p.step(fmt.Sprintf("UpdateOdom(%+v)", r), func() { p.f.UpdateOdom(r) }, func() { p.o.UpdateOdom(r) })
}

func (p *ekfPair) gnss(fix sensors.GNSSFix) bool {
	p.t.Helper()
	var fn, on float64
	var fa, oa bool
	ok := p.step(fmt.Sprintf("UpdateGNSS(%+v)", fix),
		func() { fn, fa = p.f.UpdateGNSS(fix) }, func() { on, oa = p.o.UpdateGNSS(fix) })
	if ok && (!sameBits(fn, on) || fa != oa) {
		p.t.Fatalf("op %d UpdateGNSS(%+v) returned (%v, %v), oracle (%v, %v)", p.ops, fix, fn, fa, on, oa)
	}
	return ok
}

func (p *ekfPair) check(what string) {
	p.t.Helper()
	fe, oe := p.f.Estimate(), p.o.Estimate()
	got := []float64{fe.T, fe.Pose.Pos.X, fe.Pose.Pos.Y, fe.Pose.Heading, fe.Speed, fe.YawRate, fe.PosStdDev}
	want := []float64{oe.T, oe.Pose.Pos.X, oe.Pose.Pos.Y, oe.Pose.Heading, oe.Speed, oe.YawRate, oe.PosStdDev}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			p.t.Fatalf("op %d %s: Estimate %+v, oracle %+v", p.ops, what, fe, oe)
		}
	}
	fn, fa := p.f.LastNIS()
	if !sameBits(fn, p.o.lastNIS) || fa != p.o.lastAccepted || p.f.RejectStreak() != p.o.rejectStreak {
		p.t.Fatalf("op %d %s: LastNIS (%v, %v) streak %d, oracle (%v, %v) streak %d",
			p.ops, what, fn, fa, p.f.RejectStreak(), p.o.lastNIS, p.o.lastAccepted, p.o.rejectStreak)
	}
	c := p.f.Covariance()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !sameBits(c.At(i, j), p.o.p.At(i, j)) {
				p.t.Fatalf("op %d %s: Covariance(%d,%d) = %v, oracle %v", p.ops, what, i, j, c.At(i, j), p.o.p.At(i, j))
			}
		}
	}
}

// sameBits reports whether two floats are the same bit pattern, so that
// −0 ≠ +0, or are both NaN. A NaN's payload and sign are not a property of
// the formula: Go leaves NaN propagation unspecified and the compiler may
// swap the operands of + and ×, so two compilations of one expression can
// return different NaNs (the Mat formulations already did).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// TestEKFMatchesMatOracle replays closed-loop-like runs, clean, turning,
// gated under a spoof and ungated, through the filter and the Mat oracle
// and holds every output bit-equal at every step.
func TestEKFMatchesMatOracle(t *testing.T) {
	for _, c := range []struct {
		gate        float64
		yaw, accel  float64
		spoof, from float64
	}{
		{0, 0, 0, 0, 0}, {0, 0.2, 0.1, 0, 0}, {DefaultGate, 0.05, 0, 30, 10}, {0, 0.05, -0.2, 30, 10},
	} {
		p := newEKFPair(t, EKFConfig{GateThreshold: c.gate}, 0, geom.NewPose(0, 0, 0.1), 5)
		rng := rand.New(rand.NewSource(5))
		for step := 1; step <= 2000; step++ {
			t0 := float64(step) * 0.01
			p.predict(sensors.IMUReading{T: t0, YawRate: c.yaw + rng.NormFloat64()*0.01, Accel: c.accel, Valid: true})
			if step%2 == 0 {
				p.odom(sensors.OdomReading{T: t0, Speed: 5 + rng.NormFloat64()*0.05, Valid: true})
			}
			if step%10 == 0 {
				pos := geom.V(5*t0+rng.NormFloat64()*0.2, rng.NormFloat64()*0.2)
				if c.from > 0 && t0 >= c.from {
					pos.Y += c.spoof
				}
				p.gnss(sensors.GNSSFix{T: t0, Pos: pos, Valid: true})
			}
		}
	}
}

// ekfFuzzValue maps a fuzz byte to a reading value, favouring the ones
// the arithmetic treats specially: NaN, ±Inf, ±0, huge and tiny.
func ekfFuzzValue(b byte) float64 {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e300, -1e300, 1e-300, 5e-324, 1}
	if int(b) < len(special) {
		return special[b]
	}
	return float64(int8(b)) * 0.173
}

// FuzzEKFMatchesMatOracle drives the filter and the Mat oracle through
// arbitrary reading sequences, four bytes a reading: the kind (IMU,
// odometry, GNSS) and validity, then values including NaN, ±Inf, ±0, zero
// and negative time steps, with and without the gate. Every output must
// agree bit for bit, and a reading must make both panic or neither.
func FuzzEKFMatchesMatOracle(f *testing.F) {
	f.Add(false, 0.0, 0.0, 0.0, 5.0, []byte{0, 20, 12, 14, 1, 30, 0, 0, 2, 40, 41, 0})
	f.Add(true, 1.0, -2.0, 3.0, 0.0, []byte{0, 20, 12, 14, 2, 200, 210, 0, 0, 11, 12, 13, 1, 0, 0, 0})
	f.Add(false, math.NaN(), 0.0, math.Inf(1), -1.0, []byte{0, 30, 0, 1, 2, 11, 4, 0, 1, 2, 0, 0, 0, 4, 3, 5})
	f.Add(true, 0.0, 0.0, 0.0, 1e300, []byte{0, 1, 2, 3, 1, 6, 0, 0, 2, 5, 6, 0, 0, 7, 8, 9, 2, 0, 1, 0})
	f.Fuzz(func(t *testing.T, gated bool, x0, y0, th0, v0 float64, ops []byte) {
		cfg := EKFConfig{}
		if gated {
			cfg.GateThreshold = DefaultGate
		}
		p := newEKFPair(t, cfg, 0, geom.Pose{Pos: geom.V(x0, y0), Heading: th0}, v0)
		for len(ops) >= 4 {
			op, a, b, c := ops[0], ekfFuzzValue(ops[1]), ekfFuzzValue(ops[2]), ekfFuzzValue(ops[3])
			ops = ops[4:]
			valid := op&4 == 0
			var ok bool
			switch op % 3 {
			case 0:
				ok = p.predict(sensors.IMUReading{T: p.o.t + a, YawRate: b, Accel: c, Valid: valid})
			case 1:
				ok = p.odom(sensors.OdomReading{T: p.o.t, Speed: a, Valid: valid})
			default:
				ok = p.gnss(sensors.GNSSFix{T: p.o.t, Pos: geom.V(a, b), Valid: valid})
			}
			if !ok {
				return
			}
		}
	})
}
