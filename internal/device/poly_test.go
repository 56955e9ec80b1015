package device

import (
	"math"
	"testing"

	"repro/internal/distiller"
	"repro/internal/ecc"
	"repro/internal/groupbased"
	"repro/internal/rng"
)

// polyDevice is the slice of a distiller-fronted device the typed
// polynomial tests drive: write a helper whose polynomial is replaced,
// then query.
type polyDevice struct {
	name  string
	write func(distiller.Poly2D) error
	app   func() bool
	gen   func() uint64
}

// polyDevices enrolls one groupbased and one chain (overlapping-chain
// distiller) device on the Fig. 6 array geometry.
func polyDevices(t testing.TB) []polyDevice {
	t.Helper()
	code := ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3})
	gb, err := EnrollGroupBasedReuse(nil, groupbased.Params{
		Rows: 4, Cols: 10,
		Degree:       2,
		ThresholdMHz: 0.5,
		MaxGroupSize: 6,
		Code:         code,
		EnrollReps:   25,
	}, rng.New(21), rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := EnrollDistillerPairReuse(nil, DistillerPairParams{
		Rows: 4, Cols: 10,
		Degree:     2,
		Mode:       OverlappingChain,
		Code:       code,
		EnrollReps: 15,
	}, rng.New(23), rng.New(24))
	if err != nil {
		t.Fatal(err)
	}
	gbHelper, chainHelper := gb.ReadHelper(), chain.ReadHelper()
	return []polyDevice{
		{
			name: "groupbased",
			write: func(p distiller.Poly2D) error {
				h := gbHelper
				h.Poly = p
				return gb.WriteHelper(h)
			},
			app: gb.App,
			gen: gb.NVMGeneration,
		},
		{
			name: "chain",
			write: func(p distiller.Poly2D) error {
				h := chainHelper
				h.Poly = p
				return chain.WriteHelper(h)
			},
			app: chain.App,
			gen: chain.NVMGeneration,
		},
	}
}

// TestWriteHelperRejectsMalformedPoly pins the typed-helper polynomial
// check: a degree/coefficient-count mismatch is rejected at write time,
// before the NVM changes, instead of panicking in the re-provisioning
// reconstruction's surface evaluation.
func TestWriteHelperRejectsMalformedPoly(t *testing.T) {
	cases := []struct {
		name  string
		poly  distiller.Poly2D
		valid bool
	}{
		{"degree 3 with 6 coefficients", distiller.Poly2D{P: 3, Beta: make([]float64, 6)}, false},
		{"degree 2 with 7 coefficients", distiller.Poly2D{P: 2, Beta: make([]float64, 7)}, false},
		{"degree 0 with no coefficients", distiller.Poly2D{P: 0}, false},
		{"negative degree", distiller.Poly2D{P: -1, Beta: make([]float64, 1)}, false},
		{"degree 2 with 6 coefficients", distiller.NewPoly2D(2), true},
		{"degree 4 with 15 coefficients", distiller.NewPoly2D(4), true},
	}
	for _, d := range polyDevices(t) {
		for _, c := range cases {
			t.Run(d.name+"/"+c.name, func(t *testing.T) {
				before := d.gen()
				err := d.write(c.poly)
				if c.valid {
					if err != nil {
						t.Fatalf("valid polynomial rejected: %v", err)
					}
					if d.gen() != before+1 {
						t.Fatalf("accepted write moved the NVM generation %d -> %d", before, d.gen())
					}
				} else {
					if err == nil {
						t.Fatal("malformed polynomial accepted")
					}
					if d.gen() != before {
						t.Fatalf("rejected write moved the NVM generation %d -> %d", before, d.gen())
					}
				}
				d.app()
			})
		}
	}
}

// FuzzWriteHelperPoly drives typed polynomial helpers through
// WriteHelper and two App queries on a groupbased and a chain device:
// the fuzzer picks the degree (at most 8 in magnitude), the coefficient
// count and the coefficient bits (NaN and infinities included). Every
// input must be rejected exactly when the polynomial is malformed,
// leave the NVM generation unchanged on reject, and never panic.
func FuzzWriteHelperPoly(f *testing.F) {
	f.Add(int8(3), uint8(6), uint64(0))                  // the reported panic
	f.Add(int8(2), uint8(6), math.Float64bits(1.5))      // valid
	f.Add(int8(-1), uint8(1), uint64(0))                 // negative degree
	f.Add(int8(8), uint8(45), math.Float64bits(1e300))   // largest degree
	f.Add(int8(1), uint8(3), uint64(0x7ff8000000000001)) // NaN surface
	devs := polyDevices(f)
	f.Fuzz(func(t *testing.T, degree int8, betaLen uint8, bits uint64) {
		poly := distiller.Poly2D{P: int(degree) % 9, Beta: make([]float64, int(betaLen)%64)}
		for i := range poly.Beta {
			poly.Beta[i] = math.Float64frombits(bits + uint64(i)*0x9e3779b97f4a7c15)
		}
		valid := poly.P >= 0 && len(poly.Beta) == distiller.NumTerms(poly.P)
		for _, d := range devs {
			before := d.gen()
			err := d.write(poly)
			if valid != (err == nil) {
				t.Fatalf("%s: P=%d len(Beta)=%d: valid=%v but WriteHelper err=%v", d.name, poly.P, len(poly.Beta), valid, err)
			}
			if err != nil && d.gen() != before {
				t.Fatalf("%s: rejected write moved the NVM generation %d -> %d", d.name, before, d.gen())
			}
			d.app()
			d.app()
		}
	})
}
