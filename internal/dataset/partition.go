package dataset

import (
	"fmt"
	"math/rand"
	"sort"
)

// Partition assigns every training sample index to exactly one user.
type Partition struct {
	// UserIndices[q] lists the training-set indices owned by user q.
	UserIndices [][]int
}

// Users returns the number of users in the partition.
func (p *Partition) Users() int { return len(p.UserIndices) }

// PartitionIID shuffles sample indices and deals them evenly across users —
// the paper's IID setting ("training samples are randomly shuffled and
// evenly assigned to users"). Remainder samples go to the first users.
func PartitionIID(d *Dataset, users int, rng *rand.Rand) *Partition {
	if users <= 0 {
		panic(fmt.Sprintf("dataset: need positive user count, got %d", users))
	}
	n := d.N()
	if n < users {
		panic(fmt.Sprintf("dataset: %d samples cannot cover %d users", n, users))
	}
	perm := rng.Perm(n)
	p := &Partition{UserIndices: make([][]int, users)}
	base, rem := n/users, n%users
	off := 0
	for q := 0; q < users; q++ {
		take := base
		if q < rem {
			take++
		}
		p.UserIndices[q] = append([]int(nil), perm[off:off+take]...)
		off += take
	}
	return p
}

// PartitionNonIID implements the paper's Non-IID setting: "training samples
// are sorted by labels and cut into `shards` pieces, and each
// `shardsPerUser` pieces are assigned a user" (400 shards, 4 per user for
// 100 users). Shards are dealt in a random order, so each user holds at
// most shardsPerUser distinct label regions.
func PartitionNonIID(d *Dataset, users, shards, shardsPerUser int, rng *rand.Rand) *Partition {
	if shards != users*shardsPerUser {
		panic(fmt.Sprintf("dataset: shards (%d) must equal users (%d) × shardsPerUser (%d)", shards, users, shardsPerUser))
	}
	n := d.N()
	if n < shards {
		panic(fmt.Sprintf("dataset: %d samples cannot fill %d shards", n, shards))
	}
	// Sort indices by label (stable on index for determinism).
	byLabel := make([]int, n)
	for i := range byLabel {
		byLabel[i] = i
	}
	sort.SliceStable(byLabel, func(a, b int) bool { return d.Labels[byLabel[a]] < d.Labels[byLabel[b]] })

	// Cut into contiguous shards.
	shardIdx := make([][]int, shards)
	base, rem := n/shards, n%shards
	off := 0
	for s := 0; s < shards; s++ {
		take := base
		if s < rem {
			take++
		}
		shardIdx[s] = byLabel[off : off+take]
		off += take
	}

	// Deal shards to users in random order.
	order := rng.Perm(shards)
	p := &Partition{UserIndices: make([][]int, users)}
	for q := 0; q < users; q++ {
		for s := 0; s < shardsPerUser; s++ {
			p.UserIndices[q] = append(p.UserIndices[q], shardIdx[order[q*shardsPerUser+s]]...)
		}
	}
	return p
}

// UserDatasets materializes one Dataset per user from a partition.
func UserDatasets(d *Dataset, p *Partition) []*Dataset {
	out := make([]*Dataset, p.Users())
	for q := range out {
		out[q] = d.Subset(p.UserIndices[q])
	}
	return out
}

// MeanDistinctLabels reports the average number of distinct labels per user,
// the statistic that separates IID from Non-IID partitions.
func MeanDistinctLabels(userData []*Dataset, numClasses int) float64 {
	if len(userData) == 0 {
		return 0
	}
	s := 0
	for _, d := range userData {
		s += d.DistinctLabels(numClasses)
	}
	return float64(s) / float64(len(userData))
}
