package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"helcfl/internal/device"
	"helcfl/internal/wireless"
)

func testDevices(n int, seed int64) []*device.Device {
	cfg := device.DefaultCatalogConfig()
	cfg.Q = n
	devs := device.NewCatalog(cfg, rand.New(rand.NewSource(seed)))
	for i, d := range devs {
		d.NumSamples = 40 + 10*(i%5)
	}
	return devs
}

const testModelBits = 4e5

func TestSimulateRoundEmpty(t *testing.T) {
	res := SimulateRound(nil, nil, wireless.DefaultChannel(), testModelBits, 1)
	if res.Makespan != 0 || len(res.Users) != 0 {
		t.Fatalf("empty round = %+v", res)
	}
}

func TestSimulateRoundSingleUser(t *testing.T) {
	devs := testDevices(1, 1)
	ch := wireless.DefaultChannel()
	res := SimulateRound(devs, MaxFrequencies(devs), ch, testModelBits, 1)
	u := res.Users[0]
	wantCal := devs[0].ComputeDelayAtMax()
	if math.Abs(u.ComputeDelay-wantCal) > 1e-12 {
		t.Fatalf("ComputeDelay = %g, want %g", u.ComputeDelay, wantCal)
	}
	if math.Abs(res.Makespan-u.TotalDelay()) > 1e-12 {
		t.Fatalf("single-user makespan %g != Eq9 delay %g", res.Makespan, u.TotalDelay())
	}
	if math.Abs(res.Eq10Delay-res.Makespan) > 1e-12 {
		t.Fatal("single user: Eq10 must equal makespan")
	}
	if u.Wait != 0 {
		t.Fatal("single user has no slack")
	}
	wantE := devs[0].ComputeEnergy(devs[0].FMax) + uploadEnergy(ch, testModelBits, devs[0].TxPower, devs[0].ChannelGain)
	if math.Abs(res.TotalEnergy-wantE) > 1e-12 {
		t.Fatalf("TotalEnergy = %g, want %g", res.TotalEnergy, wantE)
	}
}

func TestSimulateRoundStepsScaleCompute(t *testing.T) {
	devs := testDevices(3, 2)
	ch := wireless.DefaultChannel()
	r1 := SimulateRound(devs, MaxFrequencies(devs), ch, testModelBits, 1)
	r3 := SimulateRound(devs, MaxFrequencies(devs), ch, testModelBits, 3)
	if math.Abs(r3.ComputeEnergy-3*r1.ComputeEnergy) > 1e-9 {
		t.Fatalf("steps=3 compute energy %g, want %g", r3.ComputeEnergy, 3*r1.ComputeEnergy)
	}
	if math.Abs(r3.UploadEnergy-r1.UploadEnergy) > 1e-12 {
		t.Fatal("steps must not change upload energy")
	}
	if r3.Makespan <= r1.Makespan {
		t.Fatal("more local steps must lengthen the round")
	}
}

func TestSimulateRoundMismatchedFreqsPanics(t *testing.T) {
	devs := testDevices(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for freq/device mismatch")
		}
	}()
	SimulateRound(devs, []float64{1e9}, wireless.DefaultChannel(), testModelBits, 1)
}

func TestSimulateRoundOutOfRangeFreqPanics(t *testing.T) {
	devs := testDevices(1, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range frequency")
		}
	}()
	SimulateRound(devs, []float64{devs[0].FMax * 2}, wireless.DefaultChannel(), testModelBits, 1)
}

func TestUsersOrderedByTransmission(t *testing.T) {
	devs := testDevices(8, 5)
	res := SimulateRound(devs, MaxFrequencies(devs), wireless.DefaultChannel(), testModelBits, 1)
	for i := 1; i < len(res.Users); i++ {
		if res.Users[i].UploadStart < res.Users[i-1].UploadEnd-1e-12 {
			t.Fatal("uploads must not overlap and must be in order")
		}
	}
}

// Property: Eq. (10) lower-bounds the true makespan, energies are additive
// and positive, and slack equals sum of per-user waits.
func TestRoundInvariantsQuick(t *testing.T) {
	ch := wireless.DefaultChannel()
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%10 + 1
		devs := testDevices(n, seed)
		res := SimulateRound(devs, MaxFrequencies(devs), ch, testModelBits, 1)
		if res.Makespan < res.Eq10Delay-1e-9 {
			return false
		}
		var e, w float64
		for _, u := range res.Users {
			if u.ComputeEnergy <= 0 || u.UploadEnergy <= 0 {
				return false
			}
			e += u.ComputeEnergy + u.UploadEnergy
			w += u.Wait
		}
		return math.Abs(e-res.TotalEnergy) < 1e-9 && math.Abs(w-res.TotalSlack) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxFrequencies(t *testing.T) {
	devs := testDevices(4, 6)
	fs := MaxFrequencies(devs)
	for i, d := range devs {
		if fs[i] != d.FMax {
			t.Fatalf("device %d: %g != FMax %g", i, fs[i], d.FMax)
		}
	}
}

// Reproduction of the Fig. 1 scenario: two users where user 2 finishes
// computing while user 1 is still uploading, forcing stop-and-wait slack.
func TestTimelineSlackMatchesFig1Scenario(t *testing.T) {
	ch := wireless.Channel{BandwidthHz: 1e6, NoisePower: 0.1}
	mk := func(id, samples int, fmax float64) *device.Device {
		return &device.Device{
			ID: id, FMin: 0.3e9, FMax: fmax,
			CyclesPerSample: 1e7, Kappa: 2e-28,
			TxPower: 0.2, ChannelGain: 1.0, NumSamples: samples,
		}
	}
	// User 1 computes fast (finishes first) and then holds the channel;
	// user 2 finishes while user 1 uploads.
	u1 := mk(1, 50, 2.0e9) // T_cal = 0.25 s
	u2 := mk(2, 60, 1.5e9) // T_cal = 0.4 s
	bits := 1.2e6          // T_com ≈ 0.757 s at h=1
	res := SimulateRound([]*device.Device{u1, u2}, []float64{2.0e9, 1.5e9}, ch, bits, 1)
	if res.Users[0].User != 1 {
		t.Fatalf("user 1 must upload first, got %d", res.Users[0].User)
	}
	second := res.Users[1]
	if second.Wait <= 0 {
		t.Fatalf("Fig. 1 slack missing: wait = %g", second.Wait)
	}
	// The slack equals user 1's upload end minus user 2's compute end.
	wantWait := res.Users[0].UploadEnd - second.ComputeDelay
	if math.Abs(second.Wait-wantWait) > 1e-9 {
		t.Fatalf("wait = %g, want %g", second.Wait, wantWait)
	}
}

// uploadEnergy is the Eq. (8) oracle E_q^com = p·T_q^com that the
// simulator's inline TxPower × UploadDelay is checked against.
func uploadEnergy(ch wireless.Channel, modelBits, txPower, gain float64) float64 {
	return txPower * ch.UploadDelay(modelBits, txPower, gain)
}
