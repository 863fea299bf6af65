// Package fusion implements the localization stack the controllers consume:
// an extended Kalman filter over [x, y, heading, speed] fed by IMU
// (prediction) and GNSS/odometry (updates), with χ²-gated innovations, plus
// a dead-reckoning fallback. The innovation statistics it exposes feed the
// A10 InnovationGate assertion; the gating switch is the "guard" the
// debug-loop experiment toggles.
package fusion

import (
	"fmt"
	"math"

	"adassure/internal/geom"
	"adassure/internal/sensors"
)

// Estimate is the fused localization output consumed by the controllers.
type Estimate struct {
	T       float64
	Pose    geom.Pose
	Speed   float64
	YawRate float64
	// PosStdDev is the 1-σ position uncertainty (geometric mean of the two
	// axes), handy for monitoring.
	PosStdDev float64
}

// EKFConfig parameterises the filter.
type EKFConfig struct {
	// Process noise (continuous-time spectral densities, discretised by dt).
	PosProcNoise     float64 // m²/s  (default 0.05)
	HeadingProcNoise float64 // rad²/s (default 0.01)
	SpeedProcNoise   float64 // (m/s)²/s (default 0.5)

	// Measurement noise (1-σ).
	GNSSPosStdDev  float64 // m (default 0.2)
	OdomSpeedStdev float64 // m/s (default 0.05)

	// GateThreshold is the χ² gate on the normalised innovation squared.
	// GNSS position updates are 2-DOF: 9.21 ≈ 99th percentile. Zero
	// disables gating (the unguarded configuration in the experiments).
	GateThreshold float64
	// InitialPosStdDev seeds the covariance (default 1 m).
	InitialPosStdDev float64
}

func (c *EKFConfig) defaults() {
	if c.PosProcNoise <= 0 {
		c.PosProcNoise = 0.05
	}
	if c.HeadingProcNoise <= 0 {
		c.HeadingProcNoise = 0.01
	}
	if c.SpeedProcNoise <= 0 {
		c.SpeedProcNoise = 0.5
	}
	if c.GNSSPosStdDev <= 0 {
		c.GNSSPosStdDev = 0.2
	}
	if c.OdomSpeedStdev <= 0 {
		c.OdomSpeedStdev = 0.05
	}
	if c.InitialPosStdDev <= 0 {
		c.InitialPosStdDev = 1
	}
}

// DefaultGate is the 99th-percentile χ² threshold for the 2-DOF GNSS
// position innovation.
const DefaultGate = 9.21

// EKF is an extended Kalman filter over the state [x, y, θ, v].
// It is not safe for concurrent use.
type EKF struct {
	cfg EKFConfig

	x vec4 // state
	p mat4 // covariance
	t float64

	yawRate float64 // latest IMU yaw rate, for the estimate output

	lastNIS      float64 // latest GNSS normalised innovation squared
	lastAccepted bool
	rejectStreak int
}

// The filter's arithmetic runs on fixed-size arrays, which keeps it free
// of heap allocation and bounds checks. Every product is Mat.Mul's sum
// (ascending k from +0, skipping a zero left entry), every sum and
// difference sweeps all elements, the covariance is re-symmetrised with
// Mat.Symmetrize's formula and the innovation covariances are inverted
// with Mat.Inv's Gauss-Jordan pivoting, so each result is the Mat
// formulation's bit for bit. Structural zeros are dropped only from a
// product's left operand (the observation matrices H, the motion
// Jacobian F), where Mul's zero test skips them anyway; a zero on the
// right still multiplies, since 0·±Inf is NaN.
type (
	mat4 = [4][4]float64
	vec4 = [4]float64
)

// identity4 is the 4×4 identity.
var identity4 = mat4{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}}

// gnssH observes [x, y]; odomH observes v.
var (
	gnssH = [2][4]float64{{1, 0, 0, 0}, {0, 1, 0, 0}}
	odomH = [4]float64{0, 0, 0, 1}
)

// NewEKF builds a filter initialised at the given pose and speed.
func NewEKF(cfg EKFConfig, t0 float64, pose geom.Pose, speed float64) *EKF {
	cfg.defaults()
	f := &EKF{cfg: cfg, p: identity4, t: t0}
	f.x = vec4{pose.Pos.X, pose.Pos.Y, pose.Heading, speed}
	s2 := cfg.InitialPosStdDev * cfg.InitialPosStdDev
	f.p[0][0] = s2
	f.p[1][1] = s2
	f.p[2][2] = 0.05
	f.p[3][3] = 0.25
	f.lastAccepted = true
	return f
}

// Time returns the filter's current time.
func (f *EKF) Time() float64 { return f.t }

// PredictIMU propagates the state to reading time using the IMU's yaw rate
// and longitudinal acceleration. Out-of-order readings are ignored.
func (f *EKF) PredictIMU(r sensors.IMUReading) {
	if !r.Valid || r.T <= f.t {
		return
	}
	dt := r.T - f.t
	f.t = r.T
	f.yawRate = r.YawRate

	th := f.x[2]
	v := f.x[3]
	// Midpoint heading for the position propagation.
	thMid := th + r.YawRate*dt/2
	cos, sin := math.Cos(thMid), math.Sin(thMid)
	f.x[0] = f.x[0] + v*cos*dt
	f.x[1] = f.x[1] + v*sin*dt
	f.x[2] = geom.NormalizeAngle(th + r.YawRate*dt)
	f.x[3] = math.Max(0, v+r.Accel*dt)

	// Jacobian of the motion model wrt the state: the identity plus the
	// position rows' heading and speed sensitivities.
	f02 := -v * sin * dt
	f03 := cos * dt
	f12 := v * cos * dt
	f13 := sin * dt

	// F·p. F's rows are unit rows plus two entries in rows 0 and 1, so
	// Mul's sum is p's row (0 + 1·pᵢⱼ) plus each non-zero entry's term.
	var fp mat4
	for j := 0; j < 4; j++ {
		fp[0][j] = 0 + f.p[0][j]
		if f02 != 0 {
			fp[0][j] += f02 * f.p[2][j]
		}
		if f03 != 0 {
			fp[0][j] += f03 * f.p[3][j]
		}
		fp[1][j] = 0 + f.p[1][j]
		if f12 != 0 {
			fp[1][j] += f12 * f.p[2][j]
		}
		if f13 != 0 {
			fp[1][j] += f13 * f.p[3][j]
		}
		fp[2][j] = 0 + f.p[2][j]
		fp[3][j] = 0 + f.p[3][j]
	}
	ft := mat4{{1, 0, 0, 0}, {0, 1, 0, 0}, {f02, f12, 1, 0}, {f03, f13, 0, 1}}

	// p ← sym(F·p·Fᵀ + Q), Q the process noise on the diagonal.
	q := vec4{f.cfg.PosProcNoise * dt, f.cfg.PosProcNoise * dt, f.cfg.HeadingProcNoise * dt, f.cfg.SpeedProcNoise * dt}
	fpf := mul4(&fp, &ft)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			qij := 0.0
			if i == j {
				qij = q[i]
			}
			fpf[i][j] = fpf[i][j] + qij
		}
	}
	f.p = symmetrize4(&fpf)
}

// UpdateGNSS fuses a position fix. It returns the normalised innovation
// squared (NIS) and whether the measurement was accepted. With gating
// enabled, measurements whose NIS exceeds the threshold are rejected and
// do not perturb the state — the fusion-level "guard".
func (f *EKF) UpdateGNSS(fix sensors.GNSSFix) (nis float64, accepted bool) {
	if !fix.Valid {
		return 0, false
	}
	y := [2]float64{fix.Pos.X - f.x[0], fix.Pos.Y - f.x[1]}

	// S = H·p·Hᵀ + R: H·p is p's top rows (0 + 1·pᵢⱼ, H's zeros skipped).
	var s [2][2]float64
	r2 := f.cfg.GNSSPosStdDev * f.cfg.GNSSPosStdDev
	for i := 0; i < 2; i++ {
		var hp vec4
		for j := 0; j < 4; j++ {
			hp[j] = 0 + f.p[i][j]
		}
		for j := 0; j < 2; j++ {
			rij := 0.0
			if i == j {
				rij = r2
			}
			s[i][j] = mulSum(hp[:], gnssH[j][:]) + rij
		}
	}
	sInv := inv2(s)

	// NIS = yᵀ·S⁻¹·y.
	var ys [2]float64
	for k := 0; k < 2; k++ {
		if y[k] != 0 {
			for j := 0; j < 2; j++ {
				ys[j] += y[k] * sInv[k][j]
			}
		}
	}
	nis = mulSum(ys[:], y[:])
	f.lastNIS = nis

	if f.cfg.GateThreshold > 0 && nis > f.cfg.GateThreshold {
		f.lastAccepted = false
		f.rejectStreak++
		return nis, false
	}
	f.lastAccepted = true
	f.rejectStreak = 0

	// K = p·Hᵀ·S⁻¹; x ← x + K·y; p ← sym((I − K·H)·p).
	var k [4][2]float64
	for i := 0; i < 4; i++ {
		pht := [2]float64{mulSum(f.p[i][:], gnssH[0][:]), mulSum(f.p[i][:], gnssH[1][:])}
		for c := 0; c < 2; c++ {
			if pht[c] != 0 {
				for j := 0; j < 2; j++ {
					k[i][j] += pht[c] * sInv[c][j]
				}
			}
		}
	}
	var ikh mat4
	for i := 0; i < 4; i++ {
		f.x[i] = f.x[i] + mulSum(k[i][:], y[:])
		var kh vec4
		for c := 0; c < 2; c++ {
			if k[i][c] != 0 {
				for j := 0; j < 4; j++ {
					kh[j] += k[i][c] * gnssH[c][j]
				}
			}
		}
		for j := 0; j < 4; j++ {
			ikh[i][j] = identity4[i][j] - kh[j]
		}
	}
	f.x[2] = geom.NormalizeAngle(f.x[2])
	f.x[3] = math.Max(0, f.x[3])
	ikhp := mul4(&ikh, &f.p)
	f.p = symmetrize4(&ikhp)
	return nis, true
}

// UpdateOdom fuses a wheel-speed measurement (1-DOF, ungated — wheel odometry
// is the trusted channel in this stack).
func (f *EKF) UpdateOdom(r sensors.OdomReading) {
	if !r.Valid {
		return
	}
	y := r.Speed - f.x[3]
	// S = H·p·Hᵀ + R: H·p is p's speed row (0 + 1·p₃ⱼ, H's zeros skipped).
	var hp vec4
	for j := 0; j < 4; j++ {
		hp[j] = 0 + f.p[3][j]
	}
	sInv := inv1(mulSum(hp[:], odomH[:]) + f.cfg.OdomSpeedStdev*f.cfg.OdomSpeedStdev)

	// K = p·Hᵀ·S⁻¹; x ← x + K·y; p ← sym((I − K·H)·p).
	var ikh mat4
	for i := 0; i < 4; i++ {
		var k float64
		if pht := mulSum(f.p[i][:], odomH[:]); pht != 0 {
			k += pht * sInv
		}
		var dx float64
		var kh vec4
		if k != 0 {
			dx += k * y
			for j := 0; j < 4; j++ {
				kh[j] += k * odomH[j]
			}
		}
		f.x[i] = f.x[i] + dx
		for j := 0; j < 4; j++ {
			ikh[i][j] = identity4[i][j] - kh[j]
		}
	}
	f.x[3] = math.Max(0, f.x[3])
	ikhp := mul4(&ikh, &f.p)
	f.p = symmetrize4(&ikhp)
}

// mulSum is Mat.Mul's inner sum Σₖ aₖ·bₖ: ascending k from +0, skipping
// terms whose left factor is zero.
func mulSum(a, b []float64) float64 {
	var sum float64
	for k, ak := range a {
		if ak != 0 {
			sum += ak * b[k]
		}
	}
	return sum
}

// mul4 returns a·b in Mat.Mul's loop order.
func mul4(a, b *mat4) (out mat4) {
	for i := 0; i < 4; i++ {
		for k := 0; k < 4; k++ {
			aik := a[i][k]
			if aik == 0 {
				continue
			}
			for j := 0; j < 4; j++ {
				out[i][j] += aik * b[k][j]
			}
		}
	}
	return out
}

// symmetrize4 returns (a + aᵀ)/2 with Mat.Symmetrize's per-element sums.
func symmetrize4(a *mat4) (out mat4) {
	for i := 0; i < 4; i++ {
		for j := i; j < 4; j++ {
			out[i][j] = (a[i][j] + a[j][i]) / 2
			out[j][i] = (a[j][i] + a[i][j]) / 2
		}
	}
	return out
}

// inv2 inverts a 2×2 matrix with Mat.Inv's Gauss-Jordan elimination: the
// same partial pivoting, row operations and singular panic.
func inv2(m [2][2]float64) [2][2]float64 {
	aug := [2][4]float64{{m[0][0], m[0][1], 1, 0}, {m[1][0], m[1][1], 0, 1}}
	for col := 0; col < 2; col++ {
		piv := col
		for r := col + 1; r < 2; r++ {
			if abs(aug[r][col]) > abs(aug[piv][col]) {
				piv = r
			}
		}
		if abs(aug[piv][col]) < 1e-14 {
			panic("fusion: singular matrix in Inv")
		}
		aug[col], aug[piv] = aug[piv], aug[col]
		d := aug[col][col]
		for j := 0; j < 4; j++ {
			aug[col][j] = aug[col][j] / d
		}
		r := 1 - col
		if f := aug[r][col]; f != 0 {
			for j := 0; j < 4; j++ {
				aug[r][j] = aug[r][j] - f*aug[col][j]
			}
		}
	}
	return [2][2]float64{{aug[0][2], aug[0][3]}, {aug[1][2], aug[1][3]}}
}

// inv1 is Mat.Inv of a 1×1 matrix: the reciprocal, with the singular
// panic.
func inv1(a float64) float64 {
	if abs(a) < 1e-14 {
		panic("fusion: singular matrix in Inv")
	}
	return 1 / a
}

// Estimate returns the current fused estimate.
func (f *EKF) Estimate() Estimate {
	sx := math.Sqrt(math.Max(0, f.p[0][0]))
	sy := math.Sqrt(math.Max(0, f.p[1][1]))
	return Estimate{
		T:         f.t,
		Pose:      geom.Pose{Pos: geom.V(f.x[0], f.x[1]), Heading: f.x[2]},
		Speed:     f.x[3],
		YawRate:   f.yawRate,
		PosStdDev: math.Sqrt(sx * sy),
	}
}

// LastNIS returns the normalised innovation squared of the most recent GNSS
// update attempt, and whether it was accepted. Feeds assertion A10.
func (f *EKF) LastNIS() (nis float64, accepted bool) { return f.lastNIS, f.lastAccepted }

// RejectStreak returns how many consecutive GNSS updates the gate has
// rejected — the signal the guarded stack uses to fall back to dead
// reckoning and brake.
func (f *EKF) RejectStreak() int { return f.rejectStreak }

// Covariance returns a copy of the covariance matrix (for tests and
// diagnostics).
func (f *EKF) Covariance() Mat {
	c := NewMat(4, 4)
	for i, row := range f.p {
		copy(c.a[i*4:], row[:])
	}
	return c
}

// String implements fmt.Stringer.
func (f *EKF) String() string {
	e := f.Estimate()
	return fmt.Sprintf("ekf{t=%.2f %s v=%.2f σ=%.2f}", e.T, e.Pose, e.Speed, e.PosStdDev)
}

// DeadReckoner integrates IMU heading and odometry speed from a reference
// pose — the fallback localizer when GNSS is rejected or absent.
type DeadReckoner struct {
	t       float64
	pose    geom.Pose
	speed   float64
	yawRate float64
	init    bool
}

// NewDeadReckoner starts dead reckoning from the given pose and speed.
func NewDeadReckoner(t0 float64, pose geom.Pose, speed float64) *DeadReckoner {
	return &DeadReckoner{t: t0, pose: pose, speed: speed, init: true}
}

// Reset re-anchors the reckoner (e.g. to the latest trusted EKF estimate).
func (d *DeadReckoner) Reset(t float64, pose geom.Pose, speed float64) {
	d.t, d.pose, d.speed, d.init = t, pose, speed, true
}

// StepIMU advances the pose using an IMU reading.
func (d *DeadReckoner) StepIMU(r sensors.IMUReading) {
	if !d.init || !r.Valid || r.T <= d.t {
		return
	}
	dt := r.T - d.t
	d.t = r.T
	d.yawRate = r.YawRate
	thMid := d.pose.Heading + r.YawRate*dt/2
	d.pose.Pos = d.pose.Pos.Add(geom.V(math.Cos(thMid), math.Sin(thMid)).Scale(d.speed * dt))
	d.pose.Heading = geom.NormalizeAngle(d.pose.Heading + r.YawRate*dt)
	d.speed = math.Max(0, d.speed+r.Accel*dt)
}

// ObserveOdom snaps the speed to a wheel-odometry reading.
func (d *DeadReckoner) ObserveOdom(r sensors.OdomReading) {
	if r.Valid {
		d.speed = r.Speed
	}
}

// Estimate returns the dead-reckoned estimate.
func (d *DeadReckoner) Estimate() Estimate {
	return Estimate{T: d.t, Pose: d.pose, Speed: d.speed, YawRate: d.yawRate, PosStdDev: math.Inf(1)}
}
