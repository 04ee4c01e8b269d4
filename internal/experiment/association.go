package experiment

import (
	"fmt"
	"math/rand"
	"sync"

	"feralcc/internal/appserver"
	"feralcc/internal/db"
	"feralcc/internal/storage"
)

// AssociationVariant selects the referential-integrity mechanism under test.
type AssociationVariant uint8

const (
	// NoConstraints uses the bare models: deletes do not cascade at all.
	NoConstraints AssociationVariant = iota
	// FeralAssociation uses the Rails machinery: has_many :dependent =>
	// :destroy plus validates :department, :presence => true.
	FeralAssociation
	// InDatabaseFK adds the in-database foreign key (ON DELETE CASCADE)
	// migration on top of the feral machinery (footnote 13).
	InDatabaseFK
)

// associationVariant is one row of the variant table of Figures 4 and 5: the
// variant's name in the figures' legends, the models the requests use, the
// tables and column the orphan census joins, and the remedy DDL applied after
// migration.
type associationVariant struct {
	name             string
	dept, user       string // models
	users, fk, depts string // users table, its department column, departments table
	remedy           string
}

var associationVariants = [...]associationVariant{
	NoConstraints: {name: "without validation", dept: "SimpleDepartment", user: "SimpleUser",
		users: "simple_users", fk: "simple_department_id", depts: "simple_departments"},
	FeralAssociation: {name: "with validation", dept: "ValidatedDepartment", user: "ValidatedUser",
		users: "validated_users", fk: "validated_department_id", depts: "validated_departments"},
	InDatabaseFK: {name: "with validation + in-database FK", dept: "ValidatedDepartment", user: "ValidatedUser",
		users: "validated_users", fk: "validated_department_id", depts: "validated_departments",
		remedy: "ALTER TABLE validated_users ADD FOREIGN KEY (validated_department_id) " +
			"REFERENCES validated_departments ON DELETE CASCADE"},
}

func (v AssociationVariant) String() string {
	if int(v) < len(associationVariants) {
		return associationVariants[v].name
	}
	return fmt.Sprintf("AssociationVariant(%d)", uint8(v))
}

// createUser requests a user under department id. Here and in
// destroyDepartment, validation failures, missing departments and foreign-key
// violations are the point of the experiments, not errors of them.
func (v associationVariant) createUser(pool *appserver.Pool, id int64) {
	_ = pool.Do(func(w *appserver.Worker) error {
		_, err := w.Session.Create(v.user, map[string]storage.Value{v.fk: storage.Int(id)})
		return err
	})
}

// destroyDepartment requests department id's destruction, cascading as the
// model declares.
func (v associationVariant) destroyDepartment(pool *appserver.Pool, id int64) {
	_ = pool.Do(func(w *appserver.Worker) error {
		rec, err := w.Session.Find(v.dept, id)
		if err != nil {
			return err // already deleted: fine
		}
		return w.Session.Destroy(rec)
	})
}

// associationCell runs one Figure 4/5 cell: departments 1..n are created up
// front (Appendix C.5), drive races user creations against department
// deletions, and the census is the appendix C.5 orphan count.
func associationCell(env CellEnv, label string, workers int, variant AssociationVariant, departments int,
	drive func(*appserver.Pool, associationVariant)) (int64, error) {
	v := associationVariants[variant]
	orphans, _, err := runCell(env, label, appserver.AssociationModels, workers, v.remedy,
		func(pool *appserver.Pool) error {
			for i := 1; i <= departments; i++ {
				err := pool.Do(func(w *appserver.Worker) error {
					rec, err := w.Session.New(v.dept, map[string]storage.Value{
						"name": storage.Str(fmt.Sprintf("dept-%d", i)),
					})
					if err != nil {
						return err
					}
					if err := rec.Set("id", storage.Int(int64(i))); err != nil {
						return err
					}
					return w.Session.Save(rec)
				})
				if err != nil {
					return err
				}
			}
			drive(pool, v)
			return nil
		},
		func(conn db.Conn) (int64, error) { return appserver.CountOrphans(conn, v.users, v.fk, v.depts) })
	return orphans, err
}

// AssociationStressConfig parameterizes the Figure 4 stress test.
type AssociationStressConfig struct {
	// Workers is the x-axis (paper: 1..64).
	Workers []int
	// Departments is the number of rounds, one department each (100).
	Departments int
	// InsertsPerDepartment is the number of concurrent user creations racing
	// each department's deletion (64).
	InsertsPerDepartment int
	// CellEnv is the environment every cell runs in.
	CellEnv
}

// DefaultAssociationStressConfig returns the paper's parameters.
func DefaultAssociationStressConfig() AssociationStressConfig {
	return AssociationStressConfig{
		Workers:              []int{1, 2, 4, 8, 16, 32, 64},
		Departments:          100,
		InsertsPerDepartment: 64,
		CellEnv:              defaultCellEnv(),
	}
}

// AssociationStressPoint is one Figure 4 data point.
type AssociationStressPoint struct {
	Workers int
	Orphans map[AssociationVariant]int64
}

// RunAssociationStress reproduces Figure 4: for each department, issue one
// deletion alongside 64 concurrent user insertions, and count users whose
// department no longer exists.
func RunAssociationStress(cfg AssociationStressConfig) ([]AssociationStressPoint, error) {
	var out []AssociationStressPoint
	for _, p := range cfg.Workers {
		point := AssociationStressPoint{Workers: p, Orphans: map[AssociationVariant]int64{}}
		for _, variant := range []AssociationVariant{NoConstraints, FeralAssociation, InDatabaseFK} {
			orphans, err := associationStressCell(cfg, p, variant)
			if err != nil {
				return nil, fmt.Errorf("experiment: association stress P=%d %v: %w", p, variant, err)
			}
			point.Orphans[variant] = orphans
		}
		out = append(out, point)
	}
	return out, nil
}

// associationStressCell runs one (worker count, variant) Figure 4 cell; the
// isolation sweep calls it too.
func associationStressCell(cfg AssociationStressConfig, workers int, variant AssociationVariant) (int64, error) {
	label := fmt.Sprintf("assoc-stress-p%d-v%d-%s", workers, variant, cfg.Isolation)
	return associationCell(cfg.CellEnv, label, workers, variant, cfg.Departments, func(pool *appserver.Pool, v associationVariant) {
		for i := 1; i <= cfg.Departments; i++ {
			deptID := int64(i)
			var wg sync.WaitGroup
			wg.Add(cfg.InsertsPerDepartment + 1)
			go func() {
				defer wg.Done()
				v.destroyDepartment(pool, deptID)
			}()
			for c := 0; c < cfg.InsertsPerDepartment; c++ {
				go func() {
					defer wg.Done()
					v.createUser(pool, deptID)
				}()
			}
			wg.Wait()
		}
	})
}

// AssociationWorkloadConfig parameterizes the Figure 5 workload test.
type AssociationWorkloadConfig struct {
	// DepartmentCounts is the x-axis (paper: 1 to 10000).
	DepartmentCounts []int
	// Clients concurrent clients (64) each issuing Ops operations (100) in a
	// 10:1 create:delete mix.
	Clients int
	Ops     int
	// Workers is the Unicorn pool size (64).
	Workers int
	// Seed derives each client's operation stream.
	Seed int64
	// CellEnv is the environment every cell runs in.
	CellEnv
}

// DefaultAssociationWorkloadConfig returns the paper's parameters.
func DefaultAssociationWorkloadConfig() AssociationWorkloadConfig {
	return AssociationWorkloadConfig{
		DepartmentCounts: []int{1, 10, 100, 1000, 10000},
		Clients:          64,
		Ops:              100,
		Workers:          64,
		Seed:             2015,
		CellEnv:          defaultCellEnv(),
	}
}

// AssociationWorkloadPoint is one Figure 5 data point.
type AssociationWorkloadPoint struct {
	Departments int
	Orphans     map[AssociationVariant]int64
}

// RunAssociationWorkload reproduces Figure 5: concurrent clients create
// users under random departments and delete random departments at a 10:1
// ratio; orphans result only when a deletion's feral cascade misses a
// racing insertion.
func RunAssociationWorkload(cfg AssociationWorkloadConfig) ([]AssociationWorkloadPoint, error) {
	var out []AssociationWorkloadPoint
	for _, depts := range cfg.DepartmentCounts {
		point := AssociationWorkloadPoint{Departments: depts, Orphans: map[AssociationVariant]int64{}}
		for _, variant := range []AssociationVariant{NoConstraints, FeralAssociation} {
			orphans, err := associationWorkloadCell(cfg, depts, variant)
			if err != nil {
				return nil, fmt.Errorf("experiment: association workload D=%d %v: %w", depts, variant, err)
			}
			point.Orphans[variant] = orphans
		}
		out = append(out, point)
	}
	return out, nil
}

// associationWorkloadCell runs one (department count, variant) Figure 5 cell.
func associationWorkloadCell(cfg AssociationWorkloadConfig, departments int, variant AssociationVariant) (int64, error) {
	label := fmt.Sprintf("assoc-workload-d%d-v%d-%s", departments, variant, cfg.Isolation)
	return associationCell(cfg.CellEnv, label, cfg.Workers, variant, departments, func(pool *appserver.Pool, v associationVariant) {
		var wg sync.WaitGroup
		wg.Add(cfg.Clients)
		for c := 0; c < cfg.Clients; c++ {
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*104729))
				for op := 0; op < cfg.Ops; op++ {
					deptID := int64(rng.Intn(departments) + 1)
					if rng.Float64() < 1.0/11.0 {
						v.destroyDepartment(pool, deptID)
					} else {
						v.createUser(pool, deptID)
					}
				}
			}()
		}
		wg.Wait()
	})
}
