package obs

import "strconv"

// MetricsSink adapts the engine event stream onto a Registry, exporting the
// paper's cost quantities as Prometheus time series:
//
//	helcfl_runs_total                       counter
//	helcfl_rounds_total                     counter
//	helcfl_round_delay_seconds              histogram (Eq. 10 makespan)
//	helcfl_energy_joules_total{kind}        counter, kind = compute|upload
//	helcfl_selection_count{user}            counter (Algorithm 2 fairness)
//	helcfl_slack_reclaimed_seconds_total    counter (Algorithm 3 slack)
//	helcfl_local_update_seconds             histogram (simulated T_q^cal)
//	helcfl_local_update_wall_seconds        histogram (measured host time)
//	helcfl_upload_seconds                   histogram (T_q^com)
//	helcfl_upload_wait_seconds              histogram (stop-and-wait)
//	helcfl_dropouts_total                   counter
//	helcfl_battery_depleted_total           counter
//	helcfl_aggregations_total               counter
//	helcfl_uploads_aggregated_total         counter
//	helcfl_round                            gauge (current round index)
//	helcfl_selected_users                   gauge
//	helcfl_alive_devices                    gauge
//	helcfl_train_loss                       gauge
//	helcfl_test_accuracy                    gauge
//	helcfl_test_loss                        gauge
//	helcfl_cum_time_seconds                 gauge
//	helcfl_cum_energy_joules                gauge
type MetricsSink struct {
	runs, rounds                 *Counter
	roundDelay                   *Histogram
	energyCompute, energyUpload  *Counter
	selectionCount               *CounterVec
	slackReclaimed               *Counter
	localUpdate, localUpdateWall *Histogram
	upload, uploadWait           *Histogram
	dropouts, batteryDepleted    *Counter
	aggregations, uploadsAgg     *Counter

	round, selectedUsers, aliveDevices *Gauge
	trainLoss, testAccuracy, testLoss  *Gauge
	cumTime, cumEnergy                 *Gauge
}

// NewMetricsSink registers (or re-binds to) the helcfl_* metric families on
// the registry and returns the sink. Multiple sinks may share one registry;
// the families are registered idempotently.
func NewMetricsSink(r *Registry) *MetricsSink {
	sec := DefSecondsBuckets()
	return &MetricsSink{
		runs:           r.Counter("helcfl_runs_total", "Training runs started."),
		rounds:         r.Counter("helcfl_rounds_total", "Training rounds completed."),
		roundDelay:     r.Histogram("helcfl_round_delay_seconds", "True TDMA round makespan (Eq. 10).", sec),
		energyCompute:  r.CounterVec("helcfl_energy_joules_total", "Cumulative fleet energy by kind (Eq. 11).", "kind").With("compute"),
		energyUpload:   r.CounterVec("helcfl_energy_joules_total", "Cumulative fleet energy by kind (Eq. 11).", "kind").With("upload"),
		selectionCount: r.CounterVec("helcfl_selection_count", "Times each user was selected (Algorithm 2).", "user"),
		slackReclaimed: r.Counter("helcfl_slack_reclaimed_seconds_total", "Stop-and-wait slack accumulated across rounds (Algorithm 3's target)."),
		localUpdate:    r.Histogram("helcfl_local_update_seconds", "Simulated per-user local-update delay T_q^cal (Eq. 4).", sec),
		localUpdateWall: r.Histogram("helcfl_local_update_wall_seconds",
			"Measured wall-clock time of each local gradient computation.", sec),
		upload:          r.Histogram("helcfl_upload_seconds", "Simulated per-user upload airtime T_q^com (Eq. 7).", sec),
		uploadWait:      r.Histogram("helcfl_upload_wait_seconds", "Per-user stop-and-wait queueing before the TDMA slot.", sec),
		dropouts:        r.Counter("helcfl_dropouts_total", "Selected users whose upload was lost."),
		batteryDepleted: r.Counter("helcfl_battery_depleted_total", "Devices shut down by battery exhaustion."),
		aggregations:    r.Counter("helcfl_aggregations_total", "FedAvg aggregations performed (Eq. 18)."),
		uploadsAgg:      r.Counter("helcfl_uploads_aggregated_total", "Models folded into FedAvg aggregations."),

		round:         r.Gauge("helcfl_round", "Current 0-based round index."),
		selectedUsers: r.Gauge("helcfl_selected_users", "Users selected in the current round."),
		aliveDevices:  r.Gauge("helcfl_alive_devices", "Devices with battery remaining."),
		trainLoss:     r.Gauge("helcfl_train_loss", "Mean local training loss of the last round."),
		testAccuracy:  r.Gauge("helcfl_test_accuracy", "Last evaluated global test accuracy."),
		testLoss:      r.Gauge("helcfl_test_loss", "Last evaluated global test loss."),
		cumTime:       r.Gauge("helcfl_cum_time_seconds", "Cumulative simulated training time of the current run."),
		cumEnergy:     r.Gauge("helcfl_cum_energy_joules", "Cumulative fleet energy of the current run."),
	}
}

// OnEvent implements EventSink.
func (m *MetricsSink) OnEvent(e Event) {
	switch ev := e.(type) {
	case RunStartEvent:
		m.runs.Inc()
	case SelectionEvent:
		for _, q := range ev.Selected {
			m.selectionCount.With(strconv.Itoa(q)).Inc()
		}
		m.selectedUsers.Set(float64(len(ev.Selected)))
	case LocalUpdateEvent:
		m.localUpdate.Observe(ev.SimSec)
		if ev.WallSec > 0 {
			m.localUpdateWall.Observe(ev.WallSec)
		}
	case UploadEvent:
		m.upload.Observe(ev.SimSec)
		m.uploadWait.Observe(ev.WaitSec)
	case DropoutEvent:
		m.dropouts.Inc()
	case BatteryEvent:
		m.batteryDepleted.Inc()
	case AggregateEvent:
		m.aggregations.Inc()
		m.uploadsAgg.Add(float64(ev.Uploads))
	case RoundEndEvent:
		m.rounds.Inc()
		m.round.Set(float64(ev.Round))
		m.roundDelay.Observe(ev.DelaySec)
		m.slackReclaimed.Add(ev.SlackSec)
		m.energyCompute.Add(ev.ComputeJ)
		m.energyUpload.Add(ev.UploadJ)
		m.aliveDevices.Set(float64(ev.Alive))
		m.trainLoss.Set(ev.TrainLoss)
		m.cumTime.Set(ev.CumTimeSec)
		m.cumEnergy.Set(ev.CumEnergyJ)
		if ev.Evaluated {
			m.testAccuracy.Set(ev.TestAccuracy)
			m.testLoss.Set(ev.TestLoss)
		}
	}
}
