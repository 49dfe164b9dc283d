package metrics_test

import (
	"fmt"

	"helcfl/internal/metrics"
)

// Table I's quantity: the first evaluated moment a training curve crosses
// the desired accuracy.
func ExampleCurve_TimeToAccuracy() {
	c := metrics.Curve{Points: []metrics.Point{
		{Round: 0, Time: 60, Accuracy: 0.42},
		{Round: 10, Time: 409.2, Accuracy: 0.61},
		{Round: 20, Time: 850, Accuracy: 0.71},
	}}
	sec, ok := c.TimeToAccuracy(0.60)
	fmt.Println(metrics.FormatDelay(sec, ok))
	_, ok = c.TimeToAccuracy(0.90)
	fmt.Println(metrics.FormatDelay(0, ok))
	// Output:
	// 6.82min
	// ✗
}
