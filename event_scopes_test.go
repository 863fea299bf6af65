package adassure_test

import (
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"adassure"
)

// leafTrack matches the track names the instrumented layers emit below
// their scope prefix: the sim's scenario/attack/guard lanes, one lane per
// assertion and the diagnosis lane.
var leafTrack = regexp.MustCompile(`(scenario|attack|guard|diagnosis|assertion/A\d+)$`)

// trackScopes returns the sorted set of scope prefixes on the recorded
// tracks. Runner job lanes ("runner/worker-N") belong to the shared pool,
// not to a run, and are skipped; any other track without a known leaf
// fails the test.
func trackScopes(t *testing.T, rec *adassure.EventRecorder) []string {
	t.Helper()
	set := map[string]bool{}
	for _, e := range rec.Events() {
		if strings.HasPrefix(e.Track, "runner/") {
			continue
		}
		loc := leafTrack.FindStringIndex(e.Track)
		if loc == nil {
			t.Fatalf("event %+v: track %q has no known leaf", e, e.Track)
		}
		set[e.Track[:loc[0]]] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestEventTrackScopes pins the track-name prefix every engine gives the
// runs it puts on a shared recorder, so lanes of different runs never
// merge on one timeline.
func TestEventTrackScopes(t *testing.T) {
	t.Run("batch", func(t *testing.T) {
		rec := adassure.NewEventRecorder(0).WithoutWallClock()
		scn := adassure.Scenario{Attack: adassure.AttackDriftSpoof, Duration: 30}
		if _, err := adassure.RunScenarioBatch(adassure.BatchOptions{Workers: 2, Events: rec},
			[]adassure.Scenario{scn, scn}); err != nil {
			t.Fatal(err)
		}
		if got, want := trackScopes(t, rec), []string{"s0/", "s1/"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("scopes = %q, want %q", got, want)
		}
	})

	t.Run("harness", func(t *testing.T) {
		rec := adassure.NewEventRecorder(0).WithoutWallClock()
		if _, err := adassure.RunExperiment("F1", adassure.ExperimentOptions{Quick: true, Seeds: 1, Workers: 1, Events: rec}); err != nil {
			t.Fatal(err)
		}
		want := []string{"gnss-drift-spoof_pure-pursuit_seed1/"}
		if got := trackScopes(t, rec); !reflect.DeepEqual(got, want) {
			t.Fatalf("scopes = %q, want %q", got, want)
		}
	})

	t.Run("mutate", func(t *testing.T) {
		rec := adassure.NewEventRecorder(0).WithoutWallClock()
		if _, err := adassure.RunMutationCampaign(adassure.MutationConfig{
			Tracks:   []string{"urban-loop"},
			Mutants:  []adassure.MutantSpec{{Op: "identity"}, {Op: "sense-gnss-dropout", Param: 5}},
			Duration: 10,
			Workers:  2,
			Events:   rec,
		}); err != nil {
			t.Fatal(err)
		}
		want := []string{"baseline/urban-loop/", "identity/urban-loop/", "sense-gnss-dropout(5)/urban-loop/"}
		if got := trackScopes(t, rec); !reflect.DeepEqual(got, want) {
			t.Fatalf("scopes = %q, want %q", got, want)
		}
	})

	t.Run("search", func(t *testing.T) {
		rec := adassure.NewEventRecorder(0).WithoutWallClock()
		rep, err := adassure.RunSearch(adassure.SearchConfig{
			Tracks:   []string{"urban-loop"},
			Channels: []adassure.SearchSpec{{Op: "sense-gnss-quantize", Min: 0.05, Max: 2.5}},
			Budget:   3,
			Duration: 10,
			Workers:  1,
			Events:   rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"search/baseline/urban-loop/"}
		for n := 1; n <= rep.TotalEvals; n++ {
			want = append(want, "search/sense-gnss-quantize/urban-loop/"+strconv.Itoa(n)+"/")
		}
		sort.Strings(want)
		if got := trackScopes(t, rec); !reflect.DeepEqual(got, want) {
			t.Fatalf("scopes = %q, want %q", got, want)
		}
	})
}
