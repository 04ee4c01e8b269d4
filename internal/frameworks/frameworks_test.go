package frameworks

import (
	"testing"

	"feralcc/internal/experiment"
	"feralcc/internal/storage"
)

func TestSurveyCoversSectionSix(t *testing.T) {
	profiles := Survey()
	if len(profiles) != 7 {
		t.Fatalf("profiles = %d, want 7 (Rails + six surveyed frameworks)", len(profiles))
	}
	byName := map[string]Profile{}
	for _, p := range profiles {
		if p.Name == "" || p.Version == "" || p.Notes == "" {
			t.Errorf("incomplete profile: %+v", p)
		}
		byName[p.Name] = p
	}
	// The paper's key findings, encoded.
	if byName["Rails"].DeclaredUniqueBecomesConstraint {
		t.Error("Rails must not back validations with constraints (the whole point)")
	}
	if !byName["JPA"].DeclaredUniqueBecomesConstraint {
		t.Error("JPA backs @Column(unique=true) with a constraint")
	}
	if byName["Hibernate"].DeclaredFKBecomesConstraint {
		t.Error("Hibernate does not enforce declared FKs in the database")
	}
	if byName["CakePHP"].ValidationsInTransaction || byName["Laravel"].ValidationsInTransaction {
		t.Error("CakePHP/Laravel do not wrap validations in transactions")
	}
	if !byName["Django"].DeclaredFKBecomesConstraint || byName["Django"].CustomValidationsInTransaction {
		t.Error("Django: DB-backed FK but custom validations unwrapped")
	}
	if !byName["Waterline"].DeclaredUniqueBecomesConstraint || byName["Waterline"].ValidationsInTransaction {
		t.Error("Waterline: in-DB constraints but non-transactional validations")
	}
}

func profileByName(t *testing.T, name string) Profile {
	t.Helper()
	for _, p := range Survey() {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("no profile %s", name)
	return Profile{}
}

// admitted hunts the named profile's two races at level and reports which
// broke their invariant: duplicates (the uniqueness race) and orphans (the
// association race).
func admitted(t *testing.T, name string, level storage.IsolationLevel) (duplicates, orphans bool) {
	t.Helper()
	races := Races(profileByName(t, name))
	if len(races) != 2 || races[0].Name != "uniqueness" || races[1].Name != "association" {
		t.Fatalf("%s: races = %v, want uniqueness and association", name, races)
	}
	found := make([]bool, len(races))
	for i, w := range races {
		o, err := experiment.Hunt(w, level, 50, 1, "invariant")
		if err != nil {
			t.Fatalf("%s %s@%v: %v", name, w.Name, level, err)
		}
		if o.EngineBug {
			t.Fatalf("%s %s@%v: the engine broke its isolation contract:\n%s", name, w.Name, level, o.Report)
		}
		found[i] = o.Found
	}
	return found[0], found[1]
}

func TestRailsProfileIsSusceptibleToBothRaces(t *testing.T) {
	dups, orphans := admitted(t, "Rails", storage.ReadCommitted)
	if !dups {
		t.Error("Rails profile admitted no duplicates; the feral race should fire")
	}
	if !orphans {
		t.Error("Rails profile admitted no orphans; the feral cascade race should fire")
	}
}

func TestDjangoProfileConstraintsHold(t *testing.T) {
	dups, orphans := admitted(t, "Django", storage.ReadCommitted)
	if dups {
		t.Error("Django's DB-backed uniqueness admitted duplicates")
	}
	if orphans {
		t.Error("Django's DB-backed FK admitted orphans")
	}
}

func TestJPAUniquenessHeldButFKNot(t *testing.T) {
	dups, orphans := admitted(t, "JPA", storage.ReadCommitted)
	if dups {
		t.Error("JPA unique constraint admitted duplicates")
	}
	if !orphans {
		t.Error("JPA profile (no declared FK constraint here) should orphan under the race")
	}
}

func TestCakePHPFullySusceptible(t *testing.T) {
	if dups, orphans := admitted(t, "CakePHP", storage.ReadCommitted); !dups || !orphans {
		t.Errorf("CakePHP profile should be susceptible to both races: duplicates=%v orphans=%v", dups, orphans)
	}
}

// TestSerializableRescuesOnlyTransactionWrappedProfiles pins the survey's
// distinction that READ COMMITTED cannot show: Rails wraps validate-then-save
// in a transaction, so SERIALIZABLE closes both races; CakePHP runs every
// statement as its own transaction, so no isolation level can.
func TestSerializableRescuesOnlyTransactionWrappedProfiles(t *testing.T) {
	if dups, orphans := admitted(t, "Rails", storage.Serializable); dups || orphans {
		t.Errorf("Rails at SERIALIZABLE: duplicates=%v orphans=%v, want neither", dups, orphans)
	}
	if dups, orphans := admitted(t, "CakePHP", storage.Serializable); !dups || !orphans {
		t.Errorf("CakePHP at SERIALIZABLE: duplicates=%v orphans=%v, want both", dups, orphans)
	}
}
