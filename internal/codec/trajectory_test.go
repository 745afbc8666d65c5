package codec

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// Trajectory pin for the congestion controller: one fixed input script,
// recorded step by step. Any change to a decision rule, clamp, EWMA or
// counter moves a line.

// trajStep is one scripted controller input: a feedback report, or one
// local period — eight identical transmit-stage observations, which is one
// controller step.
type trajStep struct {
	local   bool
	loss    float64
	queue   float64
	latency time.Duration
}

func fbStep(loss float64) trajStep { return trajStep{loss: loss} }

func localStep(queue float64, latency time.Duration) trajStep {
	return trajStep{local: true, queue: queue, latency: latency}
}

// script concatenates runs of steps: an int n repeats the step after it n
// times.
func script(parts ...any) []trajStep {
	var out []trajStep
	n := 1
	for _, p := range parts {
		switch v := p.(type) {
		case int:
			n = v
			continue
		case trajStep:
			for i := 0; i < n; i++ {
				out = append(out, v)
			}
		}
		n = 1
	}
	return out
}

const ms = time.Millisecond

// controllerScript reaches every branch of the controller: clean ease and
// the GOP stretch to its cap, local-only congestion by queue and latency,
// loss (with out-of-range reports), the hysteresis band, probes that win
// on clean and band echoes, probes reverted by local congestion and by
// loss with the backoff reaching its cap, and a probe that times out
// without a feedback verdict.
var controllerScript = script(
	// Clean link: the GOP stretches to 4x the configured GOP and clamps.
	20, fbStep(0),
	// Local-only congestion at zero loss: a full queue degrades, a
	// half-full one holds the band until a probe launches, and a latency
	// spike reverts it.
	2, localStep(1, 0), 2, localStep(0.6, 0), localStep(0, 66*ms), 3, localStep(0, 0),
	// Loss, clamped reports, saturation.
	fbStep(0.5), fbStep(1.5), 3, fbStep(1),
	// Recovery at zero loss: probes launch and win on clean echoes.
	fbStep(-1), 12, fbStep(0),
	// Degrade, then hold a 2 % loss rate: the band, and band echoes.
	fbStep(0.5), 10, fbStep(0.02),
	// A loss spike at baseline, then congested echoes: each reverts a probe
	// and doubles the interval up to its cap of 16.
	fbStep(1), 6, fbStep(0.02), fbStep(1), 8, fbStep(0.02), fbStep(1),
	12, fbStep(0.02), fbStep(1), 20, fbStep(0.02), fbStep(1), 20, fbStep(0.02),
	// Probe timeout: band loss, local steps with no verdict.
	6, localStep(0, 10*ms),
)

// trajectoryLine renders the controller's whole observable state.
func trajectoryLine(i int, st trajStep, c *Controller) string {
	s := c.Snapshot()
	in := fmt.Sprintf("fb %v", st.loss)
	if st.local {
		in = fmt.Sprintf("local q=%v lat=%v", st.queue, st.latency)
	}
	a := s.Counters
	return fmt.Sprintf("%d %s: gop=%d qscale=%d threshold=%v loss=%v util=%v congested=%t probing=%t interval=%d"+
		" | fb=%d local=%d gop-=%d gop+=%d q-=%d q+=%d th+=%d th-=%d enter=%d exit=%d probe=%d win=%d revert=%d",
		i, in, s.Knobs.GOP, s.Knobs.QScale, s.Knobs.Threshold, s.LossEWMA, s.UtilEWMA,
		s.Congested, s.Probing, c.probeInterval,
		a.FeedbackReports, a.LocalSignals, a.GOPShrinks, a.GOPGrows, a.QualityDrops, a.QualityRaises,
		a.ThresholdBoosts, a.ThresholdEases, a.CongestedEnters, a.CongestedExits,
		a.Probes, a.ProbeWins, a.ProbeReverts)
}

func runControllerScript(c *Controller, steps []trajStep) []string {
	var lines []string
	for i, st := range steps {
		if st.local {
			for j := 0; j < 8; j++ {
				c.ObserveLocal(localSignal(st.queue, st.latency))
			}
		} else {
			feedLoss(c, st.loss, 1)
		}
		lines = append(lines, trajectoryLine(i, st, c))
	}
	return lines
}

func checkTrajectory(t *testing.T, name string, got []string, want string) {
	t.Helper()
	w := strings.Split(strings.TrimSpace(want), "\n")
	for i := range got {
		if i >= len(w) || got[i] != strings.TrimSpace(w[i]) {
			t.Errorf("%s diverges at step %d:\n got %s", name, i, got[i])
			if i < len(w) {
				t.Errorf("want %s", strings.TrimSpace(w[i]))
			}
			t.Logf("%s trajectory:\n%s", name, strings.Join(got, "\n"))
			return
		}
	}
	if len(got) != len(w) {
		t.Errorf("%s: %d steps, want %d", name, len(got), len(w))
	}
}

// TestControllerTrajectoryPinned pins the congestion controller's full
// state after every step of controllerScript.
func TestControllerTrajectoryPinned(t *testing.T) {
	c := newController(adaptOpts())
	checkTrajectory(t, "controller", runControllerScript(c, controllerScript), controllerTrajectory)
}

const controllerTrajectory = `
0 fb 0: gop=3 qscale=1 threshold=90 loss=0 util=0 congested=false probing=false interval=2 | fb=1 local=0 gop-=0 gop+=0 q-=0 q+=0 th+=0 th-=0 enter=0 exit=0 probe=0 win=0 revert=0
1 fb 0: gop=4 qscale=1 threshold=90 loss=0 util=0 congested=false probing=false interval=2 | fb=2 local=0 gop-=0 gop+=1 q-=0 q+=0 th+=0 th-=0 enter=0 exit=0 probe=0 win=0 revert=0
2 fb 0: gop=4 qscale=1 threshold=90 loss=0 util=0 congested=false probing=false interval=2 | fb=3 local=0 gop-=0 gop+=1 q-=0 q+=0 th+=0 th-=0 enter=0 exit=0 probe=0 win=0 revert=0
3 fb 0: gop=5 qscale=1 threshold=90 loss=0 util=0 congested=false probing=false interval=2 | fb=4 local=0 gop-=0 gop+=2 q-=0 q+=0 th+=0 th-=0 enter=0 exit=0 probe=0 win=0 revert=0
4 fb 0: gop=5 qscale=1 threshold=90 loss=0 util=0 congested=false probing=false interval=2 | fb=5 local=0 gop-=0 gop+=2 q-=0 q+=0 th+=0 th-=0 enter=0 exit=0 probe=0 win=0 revert=0
5 fb 0: gop=6 qscale=1 threshold=90 loss=0 util=0 congested=false probing=false interval=2 | fb=6 local=0 gop-=0 gop+=3 q-=0 q+=0 th+=0 th-=0 enter=0 exit=0 probe=0 win=0 revert=0
6 fb 0: gop=6 qscale=1 threshold=90 loss=0 util=0 congested=false probing=false interval=2 | fb=7 local=0 gop-=0 gop+=3 q-=0 q+=0 th+=0 th-=0 enter=0 exit=0 probe=0 win=0 revert=0
7 fb 0: gop=7 qscale=1 threshold=90 loss=0 util=0 congested=false probing=false interval=2 | fb=8 local=0 gop-=0 gop+=4 q-=0 q+=0 th+=0 th-=0 enter=0 exit=0 probe=0 win=0 revert=0
8 fb 0: gop=7 qscale=1 threshold=90 loss=0 util=0 congested=false probing=false interval=2 | fb=9 local=0 gop-=0 gop+=4 q-=0 q+=0 th+=0 th-=0 enter=0 exit=0 probe=0 win=0 revert=0
9 fb 0: gop=8 qscale=1 threshold=90 loss=0 util=0 congested=false probing=false interval=2 | fb=10 local=0 gop-=0 gop+=5 q-=0 q+=0 th+=0 th-=0 enter=0 exit=0 probe=0 win=0 revert=0
10 fb 0: gop=8 qscale=1 threshold=90 loss=0 util=0 congested=false probing=false interval=2 | fb=11 local=0 gop-=0 gop+=5 q-=0 q+=0 th+=0 th-=0 enter=0 exit=0 probe=0 win=0 revert=0
11 fb 0: gop=9 qscale=1 threshold=90 loss=0 util=0 congested=false probing=false interval=2 | fb=12 local=0 gop-=0 gop+=6 q-=0 q+=0 th+=0 th-=0 enter=0 exit=0 probe=0 win=0 revert=0
12 fb 0: gop=9 qscale=1 threshold=90 loss=0 util=0 congested=false probing=false interval=2 | fb=13 local=0 gop-=0 gop+=6 q-=0 q+=0 th+=0 th-=0 enter=0 exit=0 probe=0 win=0 revert=0
13 fb 0: gop=10 qscale=1 threshold=90 loss=0 util=0 congested=false probing=false interval=2 | fb=14 local=0 gop-=0 gop+=7 q-=0 q+=0 th+=0 th-=0 enter=0 exit=0 probe=0 win=0 revert=0
14 fb 0: gop=10 qscale=1 threshold=90 loss=0 util=0 congested=false probing=false interval=2 | fb=15 local=0 gop-=0 gop+=7 q-=0 q+=0 th+=0 th-=0 enter=0 exit=0 probe=0 win=0 revert=0
15 fb 0: gop=11 qscale=1 threshold=90 loss=0 util=0 congested=false probing=false interval=2 | fb=16 local=0 gop-=0 gop+=8 q-=0 q+=0 th+=0 th-=0 enter=0 exit=0 probe=0 win=0 revert=0
16 fb 0: gop=11 qscale=1 threshold=90 loss=0 util=0 congested=false probing=false interval=2 | fb=17 local=0 gop-=0 gop+=8 q-=0 q+=0 th+=0 th-=0 enter=0 exit=0 probe=0 win=0 revert=0
17 fb 0: gop=12 qscale=1 threshold=90 loss=0 util=0 congested=false probing=false interval=2 | fb=18 local=0 gop-=0 gop+=9 q-=0 q+=0 th+=0 th-=0 enter=0 exit=0 probe=0 win=0 revert=0
18 fb 0: gop=12 qscale=1 threshold=90 loss=0 util=0 congested=false probing=false interval=2 | fb=19 local=0 gop-=0 gop+=9 q-=0 q+=0 th+=0 th-=0 enter=0 exit=0 probe=0 win=0 revert=0
19 fb 0: gop=12 qscale=1 threshold=90 loss=0 util=0 congested=false probing=false interval=2 | fb=20 local=0 gop-=0 gop+=9 q-=0 q+=0 th+=0 th-=0 enter=0 exit=0 probe=0 win=0 revert=0
20 local q=1 lat=0s: gop=12 qscale=1 threshold=90 loss=0 util=0 congested=false probing=false interval=2 | fb=20 local=8 gop-=0 gop+=9 q-=0 q+=0 th+=0 th-=0 enter=0 exit=0 probe=0 win=0 revert=0
21 local q=1 lat=0s: gop=12 qscale=2 threshold=180 loss=0 util=0 congested=true probing=false interval=2 | fb=20 local=16 gop-=0 gop+=9 q-=1 q+=0 th+=1 th-=0 enter=1 exit=0 probe=0 win=0 revert=0
22 local q=0.6 lat=0s: gop=12 qscale=2 threshold=180 loss=0 util=0 congested=false probing=false interval=2 | fb=20 local=24 gop-=0 gop+=9 q-=1 q+=0 th+=1 th-=0 enter=1 exit=1 probe=0 win=0 revert=0
23 local q=0.6 lat=0s: gop=12 qscale=1 threshold=90 loss=0 util=0 congested=false probing=true interval=2 | fb=20 local=32 gop-=0 gop+=9 q-=1 q+=1 th+=1 th-=1 enter=1 exit=1 probe=1 win=0 revert=0
24 local q=0 lat=66ms: gop=6 qscale=4 threshold=360 loss=0 util=1.799774169921875 congested=true probing=false interval=4 | fb=20 local=40 gop-=1 gop+=9 q-=3 q+=1 th+=3 th-=1 enter=2 exit=1 probe=1 win=0 revert=1
25 local q=0 lat=0s: gop=6 qscale=4 threshold=360 loss=0 util=0.1801806385628879 congested=false probing=false interval=4 | fb=20 local=48 gop-=1 gop+=9 q-=3 q+=1 th+=3 th-=1 enter=2 exit=2 probe=1 win=0 revert=1
26 local q=0 lat=0s: gop=7 qscale=2 threshold=180 loss=0 util=0.018038408960130425 congested=false probing=false interval=4 | fb=20 local=56 gop-=1 gop+=10 q-=3 q+=2 th+=3 th-=2 enter=2 exit=2 probe=1 win=0 revert=1
27 local q=0 lat=0s: gop=7 qscale=2 threshold=180 loss=0 util=0.0018058777036654011 congested=false probing=false interval=4 | fb=20 local=64 gop-=1 gop+=10 q-=3 q+=2 th+=3 th-=2 enter=2 exit=2 probe=1 win=0 revert=1
28 fb 0.5: gop=3 qscale=4 threshold=360 loss=0.25 util=0.0018058777036654011 congested=true probing=false interval=4 | fb=21 local=64 gop-=2 gop+=10 q-=4 q+=2 th+=4 th-=2 enter=3 exit=2 probe=1 win=0 revert=1
29 fb 1.5: gop=1 qscale=8 threshold=720 loss=0.625 util=0.0018058777036654011 congested=true probing=false interval=4 | fb=22 local=64 gop-=3 gop+=10 q-=5 q+=2 th+=5 th-=2 enter=3 exit=2 probe=1 win=0 revert=1
30 fb 1: gop=1 qscale=8 threshold=720 loss=0.8125 util=0.0018058777036654011 congested=true probing=false interval=4 | fb=23 local=64 gop-=3 gop+=10 q-=5 q+=2 th+=5 th-=2 enter=3 exit=2 probe=1 win=0 revert=1
31 fb 1: gop=1 qscale=8 threshold=720 loss=0.90625 util=0.0018058777036654011 congested=true probing=false interval=4 | fb=24 local=64 gop-=3 gop+=10 q-=5 q+=2 th+=5 th-=2 enter=3 exit=2 probe=1 win=0 revert=1
32 fb 1: gop=1 qscale=8 threshold=720 loss=0.953125 util=0.0018058777036654011 congested=true probing=false interval=4 | fb=25 local=64 gop-=3 gop+=10 q-=5 q+=2 th+=5 th-=2 enter=3 exit=2 probe=1 win=0 revert=1
33 fb -1: gop=1 qscale=8 threshold=720 loss=0.4765625 util=0.0018058777036654011 congested=true probing=false interval=4 | fb=26 local=64 gop-=3 gop+=10 q-=5 q+=2 th+=5 th-=2 enter=3 exit=2 probe=1 win=0 revert=1
34 fb 0: gop=1 qscale=8 threshold=720 loss=0.23828125 util=0.0018058777036654011 congested=true probing=false interval=4 | fb=27 local=64 gop-=3 gop+=10 q-=5 q+=2 th+=5 th-=2 enter=3 exit=2 probe=1 win=0 revert=1
35 fb 0: gop=1 qscale=8 threshold=720 loss=0.119140625 util=0.0018058777036654011 congested=true probing=false interval=4 | fb=28 local=64 gop-=3 gop+=10 q-=5 q+=2 th+=5 th-=2 enter=3 exit=2 probe=1 win=0 revert=1
36 fb 0: gop=1 qscale=8 threshold=720 loss=0.0595703125 util=0.0018058777036654011 congested=true probing=false interval=4 | fb=29 local=64 gop-=3 gop+=10 q-=5 q+=2 th+=5 th-=2 enter=3 exit=2 probe=1 win=0 revert=1
37 fb 0: gop=1 qscale=8 threshold=720 loss=0.02978515625 util=0.0018058777036654011 congested=false probing=false interval=4 | fb=30 local=64 gop-=3 gop+=10 q-=5 q+=2 th+=5 th-=2 enter=3 exit=3 probe=1 win=0 revert=1
38 fb 0: gop=1 qscale=8 threshold=720 loss=0.014892578125 util=0.0018058777036654011 congested=false probing=false interval=4 | fb=31 local=64 gop-=3 gop+=10 q-=5 q+=2 th+=5 th-=2 enter=3 exit=3 probe=1 win=0 revert=1
39 fb 0: gop=1 qscale=8 threshold=720 loss=0.0074462890625 util=0.0018058777036654011 congested=false probing=false interval=4 | fb=32 local=64 gop-=3 gop+=10 q-=5 q+=2 th+=5 th-=2 enter=3 exit=3 probe=1 win=0 revert=1
40 fb 0: gop=3 qscale=2 threshold=180 loss=0.00372314453125 util=0.0018058777036654011 congested=false probing=true interval=4 | fb=33 local=64 gop-=3 gop+=12 q-=5 q+=4 th+=5 th-=4 enter=3 exit=3 probe=2 win=0 revert=1
41 fb 0: gop=3 qscale=1 threshold=90 loss=0.001861572265625 util=0.0018058777036654011 congested=false probing=false interval=1 | fb=34 local=64 gop-=3 gop+=12 q-=5 q+=5 th+=5 th-=5 enter=3 exit=3 probe=2 win=1 revert=1
42 fb 0: gop=4 qscale=1 threshold=90 loss=0.0009307861328125 util=0.0018058777036654011 congested=false probing=false interval=1 | fb=35 local=64 gop-=3 gop+=13 q-=5 q+=5 th+=5 th-=5 enter=3 exit=3 probe=2 win=1 revert=1
43 fb 0: gop=4 qscale=1 threshold=90 loss=0.00046539306640625 util=0.0018058777036654011 congested=false probing=false interval=1 | fb=36 local=64 gop-=3 gop+=13 q-=5 q+=5 th+=5 th-=5 enter=3 exit=3 probe=2 win=1 revert=1
44 fb 0: gop=5 qscale=1 threshold=90 loss=0.000232696533203125 util=0.0018058777036654011 congested=false probing=false interval=1 | fb=37 local=64 gop-=3 gop+=14 q-=5 q+=5 th+=5 th-=5 enter=3 exit=3 probe=2 win=1 revert=1
45 fb 0: gop=5 qscale=1 threshold=90 loss=0.0001163482666015625 util=0.0018058777036654011 congested=false probing=false interval=1 | fb=38 local=64 gop-=3 gop+=14 q-=5 q+=5 th+=5 th-=5 enter=3 exit=3 probe=2 win=1 revert=1
46 fb 0.5: gop=2 qscale=2 threshold=180 loss=0.2500581741333008 util=0.0018058777036654011 congested=true probing=false interval=1 | fb=39 local=64 gop-=4 gop+=14 q-=6 q+=5 th+=6 th-=5 enter=4 exit=3 probe=2 win=1 revert=1
47 fb 0.02: gop=1 qscale=4 threshold=360 loss=0.1350290870666504 util=0.0018058777036654011 congested=true probing=false interval=1 | fb=40 local=64 gop-=5 gop+=14 q-=7 q+=5 th+=7 th-=5 enter=4 exit=3 probe=2 win=1 revert=1
48 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.0775145435333252 util=0.0018058777036654011 congested=true probing=false interval=1 | fb=41 local=64 gop-=5 gop+=14 q-=8 q+=5 th+=8 th-=5 enter=4 exit=3 probe=2 win=1 revert=1
49 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.0487572717666626 util=0.0018058777036654011 congested=true probing=false interval=1 | fb=42 local=64 gop-=5 gop+=14 q-=8 q+=5 th+=8 th-=5 enter=4 exit=3 probe=2 win=1 revert=1
50 fb 0.02: gop=2 qscale=4 threshold=360 loss=0.0343786358833313 util=0.0018058777036654011 congested=false probing=true interval=1 | fb=43 local=64 gop-=5 gop+=15 q-=8 q+=6 th+=8 th-=6 enter=4 exit=4 probe=3 win=1 revert=1
51 fb 0.02: gop=2 qscale=4 threshold=360 loss=0.027189317941665653 util=0.0018058777036654011 congested=false probing=false interval=2 | fb=44 local=64 gop-=5 gop+=15 q-=8 q+=6 th+=8 th-=6 enter=4 exit=4 probe=3 win=2 revert=1
52 fb 0.02: gop=3 qscale=2 threshold=180 loss=0.02359465897083283 util=0.0018058777036654011 congested=false probing=true interval=2 | fb=45 local=64 gop-=5 gop+=16 q-=8 q+=7 th+=8 th-=7 enter=4 exit=4 probe=4 win=2 revert=1
53 fb 0.02: gop=3 qscale=2 threshold=180 loss=0.021797329485416413 util=0.0018058777036654011 congested=false probing=false interval=2 | fb=46 local=64 gop-=5 gop+=16 q-=8 q+=7 th+=8 th-=7 enter=4 exit=4 probe=4 win=3 revert=1
54 fb 0.02: gop=3 qscale=1 threshold=90 loss=0.020898664742708205 util=0.0018058777036654011 congested=false probing=true interval=2 | fb=47 local=64 gop-=5 gop+=16 q-=8 q+=8 th+=8 th-=8 enter=4 exit=4 probe=5 win=3 revert=1
55 fb 0.02: gop=3 qscale=1 threshold=90 loss=0.0204493323713541 util=0.0018058777036654011 congested=false probing=false interval=2 | fb=48 local=64 gop-=5 gop+=16 q-=8 q+=8 th+=8 th-=8 enter=4 exit=4 probe=5 win=4 revert=1
56 fb 0.02: gop=3 qscale=1 threshold=90 loss=0.020224666185677052 util=0.0018058777036654011 congested=false probing=false interval=2 | fb=49 local=64 gop-=5 gop+=16 q-=8 q+=8 th+=8 th-=8 enter=4 exit=4 probe=5 win=4 revert=1
57 fb 1: gop=1 qscale=2 threshold=180 loss=0.5101123330928385 util=0.0018058777036654011 congested=true probing=false interval=2 | fb=50 local=64 gop-=6 gop+=16 q-=9 q+=8 th+=9 th-=8 enter=5 exit=4 probe=5 win=4 revert=1
58 fb 0.02: gop=1 qscale=4 threshold=360 loss=0.2650561665464193 util=0.0018058777036654011 congested=true probing=false interval=2 | fb=51 local=64 gop-=6 gop+=16 q-=10 q+=8 th+=10 th-=8 enter=5 exit=4 probe=5 win=4 revert=1
59 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.14252808327320965 util=0.0018058777036654011 congested=true probing=false interval=2 | fb=52 local=64 gop-=6 gop+=16 q-=11 q+=8 th+=11 th-=8 enter=5 exit=4 probe=5 win=4 revert=1
60 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.08126404163660482 util=0.0018058777036654011 congested=true probing=false interval=2 | fb=53 local=64 gop-=6 gop+=16 q-=11 q+=8 th+=11 th-=8 enter=5 exit=4 probe=5 win=4 revert=1
61 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.05063202081830241 util=0.0018058777036654011 congested=true probing=false interval=2 | fb=54 local=64 gop-=6 gop+=16 q-=11 q+=8 th+=11 th-=8 enter=5 exit=4 probe=5 win=4 revert=1
62 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.03531601040915121 util=0.0018058777036654011 congested=false probing=false interval=2 | fb=55 local=64 gop-=6 gop+=16 q-=11 q+=8 th+=11 th-=8 enter=5 exit=5 probe=5 win=4 revert=1
63 fb 0.02: gop=2 qscale=4 threshold=360 loss=0.027658005204575606 util=0.0018058777036654011 congested=false probing=true interval=2 | fb=56 local=64 gop-=6 gop+=17 q-=11 q+=9 th+=11 th-=9 enter=5 exit=5 probe=6 win=4 revert=1
64 fb 1: gop=1 qscale=8 threshold=720 loss=0.5138290026022878 util=0.0018058777036654011 congested=true probing=false interval=4 | fb=57 local=64 gop-=7 gop+=17 q-=12 q+=9 th+=12 th-=9 enter=6 exit=5 probe=6 win=4 revert=2
65 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.2669145013011439 util=0.0018058777036654011 congested=true probing=false interval=4 | fb=58 local=64 gop-=7 gop+=17 q-=12 q+=9 th+=12 th-=9 enter=6 exit=5 probe=6 win=4 revert=2
66 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.14345725065057197 util=0.0018058777036654011 congested=true probing=false interval=4 | fb=59 local=64 gop-=7 gop+=17 q-=12 q+=9 th+=12 th-=9 enter=6 exit=5 probe=6 win=4 revert=2
67 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.08172862532528598 util=0.0018058777036654011 congested=true probing=false interval=4 | fb=60 local=64 gop-=7 gop+=17 q-=12 q+=9 th+=12 th-=9 enter=6 exit=5 probe=6 win=4 revert=2
68 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.05086431266264299 util=0.0018058777036654011 congested=true probing=false interval=4 | fb=61 local=64 gop-=7 gop+=17 q-=12 q+=9 th+=12 th-=9 enter=6 exit=5 probe=6 win=4 revert=2
69 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.0354321563313215 util=0.0018058777036654011 congested=false probing=false interval=4 | fb=62 local=64 gop-=7 gop+=17 q-=12 q+=9 th+=12 th-=9 enter=6 exit=6 probe=6 win=4 revert=2
70 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.027716078165660747 util=0.0018058777036654011 congested=false probing=false interval=4 | fb=63 local=64 gop-=7 gop+=17 q-=12 q+=9 th+=12 th-=9 enter=6 exit=6 probe=6 win=4 revert=2
71 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.023858039082830372 util=0.0018058777036654011 congested=false probing=false interval=4 | fb=64 local=64 gop-=7 gop+=17 q-=12 q+=9 th+=12 th-=9 enter=6 exit=6 probe=6 win=4 revert=2
72 fb 0.02: gop=2 qscale=4 threshold=360 loss=0.021929019541415185 util=0.0018058777036654011 congested=false probing=true interval=4 | fb=65 local=64 gop-=7 gop+=18 q-=12 q+=10 th+=12 th-=10 enter=6 exit=6 probe=7 win=4 revert=2
73 fb 1: gop=1 qscale=8 threshold=720 loss=0.5109645097707076 util=0.0018058777036654011 congested=true probing=false interval=8 | fb=66 local=64 gop-=8 gop+=18 q-=13 q+=10 th+=13 th-=10 enter=7 exit=6 probe=7 win=4 revert=3
74 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.2654822548853538 util=0.0018058777036654011 congested=true probing=false interval=8 | fb=67 local=64 gop-=8 gop+=18 q-=13 q+=10 th+=13 th-=10 enter=7 exit=6 probe=7 win=4 revert=3
75 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.14274112744267692 util=0.0018058777036654011 congested=true probing=false interval=8 | fb=68 local=64 gop-=8 gop+=18 q-=13 q+=10 th+=13 th-=10 enter=7 exit=6 probe=7 win=4 revert=3
76 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.08137056372133845 util=0.0018058777036654011 congested=true probing=false interval=8 | fb=69 local=64 gop-=8 gop+=18 q-=13 q+=10 th+=13 th-=10 enter=7 exit=6 probe=7 win=4 revert=3
77 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.05068528186066923 util=0.0018058777036654011 congested=true probing=false interval=8 | fb=70 local=64 gop-=8 gop+=18 q-=13 q+=10 th+=13 th-=10 enter=7 exit=6 probe=7 win=4 revert=3
78 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.035342640930334616 util=0.0018058777036654011 congested=false probing=false interval=8 | fb=71 local=64 gop-=8 gop+=18 q-=13 q+=10 th+=13 th-=10 enter=7 exit=7 probe=7 win=4 revert=3
79 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.027671320465167307 util=0.0018058777036654011 congested=false probing=false interval=8 | fb=72 local=64 gop-=8 gop+=18 q-=13 q+=10 th+=13 th-=10 enter=7 exit=7 probe=7 win=4 revert=3
80 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.023835660232583655 util=0.0018058777036654011 congested=false probing=false interval=8 | fb=73 local=64 gop-=8 gop+=18 q-=13 q+=10 th+=13 th-=10 enter=7 exit=7 probe=7 win=4 revert=3
81 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.02191783011629183 util=0.0018058777036654011 congested=false probing=false interval=8 | fb=74 local=64 gop-=8 gop+=18 q-=13 q+=10 th+=13 th-=10 enter=7 exit=7 probe=7 win=4 revert=3
82 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.020958915058145913 util=0.0018058777036654011 congested=false probing=false interval=8 | fb=75 local=64 gop-=8 gop+=18 q-=13 q+=10 th+=13 th-=10 enter=7 exit=7 probe=7 win=4 revert=3
83 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.02047945752907296 util=0.0018058777036654011 congested=false probing=false interval=8 | fb=76 local=64 gop-=8 gop+=18 q-=13 q+=10 th+=13 th-=10 enter=7 exit=7 probe=7 win=4 revert=3
84 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.02023972876453648 util=0.0018058777036654011 congested=false probing=false interval=8 | fb=77 local=64 gop-=8 gop+=18 q-=13 q+=10 th+=13 th-=10 enter=7 exit=7 probe=7 win=4 revert=3
85 fb 0.02: gop=2 qscale=4 threshold=360 loss=0.02011986438226824 util=0.0018058777036654011 congested=false probing=true interval=8 | fb=78 local=64 gop-=8 gop+=19 q-=13 q+=11 th+=13 th-=11 enter=7 exit=7 probe=8 win=4 revert=3
86 fb 1: gop=1 qscale=8 threshold=720 loss=0.5100599321911341 util=0.0018058777036654011 congested=true probing=false interval=16 | fb=79 local=64 gop-=9 gop+=19 q-=14 q+=11 th+=14 th-=11 enter=8 exit=7 probe=8 win=4 revert=4
87 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.26502996609556706 util=0.0018058777036654011 congested=true probing=false interval=16 | fb=80 local=64 gop-=9 gop+=19 q-=14 q+=11 th+=14 th-=11 enter=8 exit=7 probe=8 win=4 revert=4
88 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.14251498304778354 util=0.0018058777036654011 congested=true probing=false interval=16 | fb=81 local=64 gop-=9 gop+=19 q-=14 q+=11 th+=14 th-=11 enter=8 exit=7 probe=8 win=4 revert=4
89 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.08125749152389176 util=0.0018058777036654011 congested=true probing=false interval=16 | fb=82 local=64 gop-=9 gop+=19 q-=14 q+=11 th+=14 th-=11 enter=8 exit=7 probe=8 win=4 revert=4
90 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.050628745761945884 util=0.0018058777036654011 congested=true probing=false interval=16 | fb=83 local=64 gop-=9 gop+=19 q-=14 q+=11 th+=14 th-=11 enter=8 exit=7 probe=8 win=4 revert=4
91 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.035314372880972944 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=84 local=64 gop-=9 gop+=19 q-=14 q+=11 th+=14 th-=11 enter=8 exit=8 probe=8 win=4 revert=4
92 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.027657186440486474 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=85 local=64 gop-=9 gop+=19 q-=14 q+=11 th+=14 th-=11 enter=8 exit=8 probe=8 win=4 revert=4
93 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.023828593220243235 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=86 local=64 gop-=9 gop+=19 q-=14 q+=11 th+=14 th-=11 enter=8 exit=8 probe=8 win=4 revert=4
94 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.02191429661012162 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=87 local=64 gop-=9 gop+=19 q-=14 q+=11 th+=14 th-=11 enter=8 exit=8 probe=8 win=4 revert=4
95 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.020957148305060812 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=88 local=64 gop-=9 gop+=19 q-=14 q+=11 th+=14 th-=11 enter=8 exit=8 probe=8 win=4 revert=4
96 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.020478574152530404 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=89 local=64 gop-=9 gop+=19 q-=14 q+=11 th+=14 th-=11 enter=8 exit=8 probe=8 win=4 revert=4
97 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.020239287076265204 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=90 local=64 gop-=9 gop+=19 q-=14 q+=11 th+=14 th-=11 enter=8 exit=8 probe=8 win=4 revert=4
98 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.0201196435381326 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=91 local=64 gop-=9 gop+=19 q-=14 q+=11 th+=14 th-=11 enter=8 exit=8 probe=8 win=4 revert=4
99 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.020059821769066302 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=92 local=64 gop-=9 gop+=19 q-=14 q+=11 th+=14 th-=11 enter=8 exit=8 probe=8 win=4 revert=4
100 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.020029910884533153 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=93 local=64 gop-=9 gop+=19 q-=14 q+=11 th+=14 th-=11 enter=8 exit=8 probe=8 win=4 revert=4
101 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.02001495544226658 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=94 local=64 gop-=9 gop+=19 q-=14 q+=11 th+=14 th-=11 enter=8 exit=8 probe=8 win=4 revert=4
102 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.020007477721133288 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=95 local=64 gop-=9 gop+=19 q-=14 q+=11 th+=14 th-=11 enter=8 exit=8 probe=8 win=4 revert=4
103 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.020003738860566646 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=96 local=64 gop-=9 gop+=19 q-=14 q+=11 th+=14 th-=11 enter=8 exit=8 probe=8 win=4 revert=4
104 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.02000186943028332 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=97 local=64 gop-=9 gop+=19 q-=14 q+=11 th+=14 th-=11 enter=8 exit=8 probe=8 win=4 revert=4
105 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.02000093471514166 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=98 local=64 gop-=9 gop+=19 q-=14 q+=11 th+=14 th-=11 enter=8 exit=8 probe=8 win=4 revert=4
106 fb 0.02: gop=2 qscale=4 threshold=360 loss=0.020000467357570828 util=0.0018058777036654011 congested=false probing=true interval=16 | fb=99 local=64 gop-=9 gop+=20 q-=14 q+=12 th+=14 th-=12 enter=8 exit=8 probe=9 win=4 revert=4
107 fb 1: gop=1 qscale=8 threshold=720 loss=0.5100002336787854 util=0.0018058777036654011 congested=true probing=false interval=16 | fb=100 local=64 gop-=10 gop+=20 q-=15 q+=12 th+=15 th-=12 enter=9 exit=8 probe=9 win=4 revert=5
108 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.26500011683939273 util=0.0018058777036654011 congested=true probing=false interval=16 | fb=101 local=64 gop-=10 gop+=20 q-=15 q+=12 th+=15 th-=12 enter=9 exit=8 probe=9 win=4 revert=5
109 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.14250005841969637 util=0.0018058777036654011 congested=true probing=false interval=16 | fb=102 local=64 gop-=10 gop+=20 q-=15 q+=12 th+=15 th-=12 enter=9 exit=8 probe=9 win=4 revert=5
110 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.08125002920984818 util=0.0018058777036654011 congested=true probing=false interval=16 | fb=103 local=64 gop-=10 gop+=20 q-=15 q+=12 th+=15 th-=12 enter=9 exit=8 probe=9 win=4 revert=5
111 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.05062501460492409 util=0.0018058777036654011 congested=true probing=false interval=16 | fb=104 local=64 gop-=10 gop+=20 q-=15 q+=12 th+=15 th-=12 enter=9 exit=8 probe=9 win=4 revert=5
112 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.03531250730246205 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=105 local=64 gop-=10 gop+=20 q-=15 q+=12 th+=15 th-=12 enter=9 exit=9 probe=9 win=4 revert=5
113 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.027656253651231026 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=106 local=64 gop-=10 gop+=20 q-=15 q+=12 th+=15 th-=12 enter=9 exit=9 probe=9 win=4 revert=5
114 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.02382812682561551 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=107 local=64 gop-=10 gop+=20 q-=15 q+=12 th+=15 th-=12 enter=9 exit=9 probe=9 win=4 revert=5
115 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.021914063412807758 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=108 local=64 gop-=10 gop+=20 q-=15 q+=12 th+=15 th-=12 enter=9 exit=9 probe=9 win=4 revert=5
116 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.02095703170640388 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=109 local=64 gop-=10 gop+=20 q-=15 q+=12 th+=15 th-=12 enter=9 exit=9 probe=9 win=4 revert=5
117 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.020478515853201942 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=110 local=64 gop-=10 gop+=20 q-=15 q+=12 th+=15 th-=12 enter=9 exit=9 probe=9 win=4 revert=5
118 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.020239257926600973 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=111 local=64 gop-=10 gop+=20 q-=15 q+=12 th+=15 th-=12 enter=9 exit=9 probe=9 win=4 revert=5
119 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.02011962896330049 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=112 local=64 gop-=10 gop+=20 q-=15 q+=12 th+=15 th-=12 enter=9 exit=9 probe=9 win=4 revert=5
120 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.020059814481650243 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=113 local=64 gop-=10 gop+=20 q-=15 q+=12 th+=15 th-=12 enter=9 exit=9 probe=9 win=4 revert=5
121 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.020029907240825123 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=114 local=64 gop-=10 gop+=20 q-=15 q+=12 th+=15 th-=12 enter=9 exit=9 probe=9 win=4 revert=5
122 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.020014953620412564 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=115 local=64 gop-=10 gop+=20 q-=15 q+=12 th+=15 th-=12 enter=9 exit=9 probe=9 win=4 revert=5
123 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.02000747681020628 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=116 local=64 gop-=10 gop+=20 q-=15 q+=12 th+=15 th-=12 enter=9 exit=9 probe=9 win=4 revert=5
124 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.02000373840510314 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=117 local=64 gop-=10 gop+=20 q-=15 q+=12 th+=15 th-=12 enter=9 exit=9 probe=9 win=4 revert=5
125 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.02000186920255157 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=118 local=64 gop-=10 gop+=20 q-=15 q+=12 th+=15 th-=12 enter=9 exit=9 probe=9 win=4 revert=5
126 fb 0.02: gop=1 qscale=8 threshold=720 loss=0.020000934601275784 util=0.0018058777036654011 congested=false probing=false interval=16 | fb=119 local=64 gop-=10 gop+=20 q-=15 q+=12 th+=15 th-=12 enter=9 exit=9 probe=9 win=4 revert=5
127 fb 0.02: gop=2 qscale=4 threshold=360 loss=0.02000046730063789 util=0.0018058777036654011 congested=false probing=true interval=16 | fb=120 local=64 gop-=10 gop+=21 q-=15 q+=13 th+=15 th-=13 enter=9 exit=9 probe=10 win=4 revert=5
128 local q=0 lat=10ms: gop=2 qscale=4 threshold=360 loss=0.02000046730063789 util=0.27287384772988693 congested=false probing=true interval=16 | fb=120 local=72 gop-=10 gop+=21 q-=15 q+=13 th+=15 th-=13 enter=9 exit=9 probe=10 win=4 revert=5
129 local q=0 lat=10ms: gop=2 qscale=4 threshold=360 loss=0.02000046730063789 util=0.3000112523829332 congested=false probing=true interval=16 | fb=120 local=80 gop-=10 gop+=21 q-=15 q+=13 th+=15 th-=13 enter=9 exit=9 probe=10 win=4 revert=5
130 local q=0 lat=10ms: gop=2 qscale=4 threshold=360 loss=0.02000046730063789 util=0.30272805706934425 congested=false probing=true interval=16 | fb=120 local=88 gop-=10 gop+=21 q-=15 q+=13 th+=15 th-=13 enter=9 exit=9 probe=10 win=4 revert=5
131 local q=0 lat=10ms: gop=2 qscale=4 threshold=360 loss=0.02000046730063789 util=0.3030000443060927 congested=false probing=false interval=2 | fb=120 local=96 gop-=10 gop+=21 q-=15 q+=13 th+=15 th-=13 enter=9 exit=9 probe=10 win=4 revert=5
132 local q=0 lat=10ms: gop=2 qscale=4 threshold=360 loss=0.02000046730063789 util=0.303027273741217 congested=false probing=false interval=2 | fb=120 local=104 gop-=10 gop+=21 q-=15 q+=13 th+=15 th-=13 enter=9 exit=9 probe=10 win=4 revert=5
133 local q=0 lat=10ms: gop=3 qscale=2 threshold=180 loss=0.02000046730063789 util=0.3030299997593421 congested=false probing=true interval=2 | fb=120 local=112 gop-=10 gop+=22 q-=15 q+=14 th+=15 th-=14 enter=9 exit=9 probe=11 win=4 revert=5
`
