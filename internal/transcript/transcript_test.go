package transcript

import (
	"context"
	"strings"
	"testing"
)

// The bit-exact values a Run produces are pinned by the golden matrix in
// testdata/transcripts/ at the repository root (TestGoldenTranscripts);
// these tests cover the harness surface itself — error paths, the
// serialization round trip, and the shape of the golden matrix.

func TestRunRejectsUnknownAttack(t *testing.T) {
	_, err := Run(context.Background(), Spec{Attack: "nonexistent", Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "nonexistent") {
		t.Fatalf("err = %v, want unknown-attack error naming the attack", err)
	}
}

// The retired sequential-stream model is rejected like any other
// unknown name, by Run and Enroll alike.
func TestRunRejectsUnknownNoiseModel(t *testing.T) {
	for _, noise := range []string{"thermal", "stream"} {
		spec := Spec{Attack: "seqpair", Seed: 1, Noise: noise}
		_, err := Run(context.Background(), spec)
		if err == nil || !strings.Contains(err.Error(), "unknown noise model") {
			t.Fatalf("noise %q: err = %v, want unknown-noise-model error", noise, err)
		}
		if _, _, err := Enroll(spec); err == nil || !strings.Contains(err.Error(), "unknown noise model") {
			t.Fatalf("noise %q: Enroll err = %v, want unknown-noise-model error", noise, err)
		}
	}
}

func TestMarshalRoundTrips(t *testing.T) {
	tr, err := Run(context.Background(), Spec{Attack: "groupbased", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	data, err := Marshal([]Transcript{tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatal("marshaled transcripts must end in a newline")
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("round trip returned %d transcripts", len(back))
	}
	data2, err := Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("marshal/unmarshal/marshal is not a fixed point")
	}
}

func TestGoldenFilesCoverTheFullMatrix(t *testing.T) {
	files := GoldenFiles()
	attacks := Attacks()
	if len(files) != len(attacks)*len(NoiseModels) {
		t.Fatalf("%d golden files, want %d (attacks %v x noise %v)",
			len(files), len(attacks)*len(NoiseModels), attacks, NoiseModels)
	}
	for _, a := range attacks {
		for _, n := range NoiseModels {
			specs, ok := files[a+"_"+n+".json"]
			if !ok {
				t.Fatalf("matrix cell %s x %s missing", a, n)
			}
			if len(specs) == 0 {
				t.Fatalf("cell %s x %s has no seeds", a, n)
			}
			for _, s := range specs {
				if s.Attack != a || s.Noise != n {
					t.Fatalf("spec %+v filed under %s x %s", s, a, n)
				}
				if s.Attack == "seqpair" && !s.Expurgate {
					t.Fatal("seqpair golden cells must use the expurgated code")
				}
			}
		}
	}
}
