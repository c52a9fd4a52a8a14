//! Input generation.  Everything is a pure function of the seed; the program
//! under test only ever sees the generated ticks.

use tkcm_datasets::{FleetConfig, SbrConfig};
use tkcm_timeseries::{Catalog, StreamSource, StreamTick, Timestamp};

/// Five-minute sampling, as in the paper's SBR data.
const TICKS_PER_DAY: usize = 288;
const TICK_SECONDS: i64 = 300;

// == sbr_paper: the paper's single-engine setting ==

/// SBR stations of the §7 runtime experiments.
pub const SBR_STATIONS: usize = 10;
/// 120 days of 5-minute data: the paper's 34 560-tick window.
pub const SBR_WINDOW: usize = 120 * TICKS_PER_DAY;
/// The stretch of ticks after the window that each measured pass replays:
/// 50 outages, 200 imputations.
pub const SBR_STRETCH: usize = 2000;
/// Ticks after the window whose imputations `rmse` scores: the stretch and
/// an untimed continuation, so the score rests on 400 imputations.
pub const SBR_SCORED: usize = 4000;
const SBR_EXTRA_DAYS: usize = SBR_SCORED.div_ceil(TICKS_PER_DAY);
/// One single-series outage of `SBR_OUTAGE_LEN` ticks every `SBR_OUTAGE_EVERY`
/// ticks.
const SBR_OUTAGE_EVERY: usize = 40;
const SBR_OUTAGE_LEN: usize = 4;
/// The station network is one fixed synthetic dataset, as the paper's
/// evaluation uses one recorded dataset; `--seed` places the outages.  A
/// seed per dataset would make each run's weather — and with it the
/// imputation difficulty and the pruning rate — differ far more than any
/// change worth measuring.
const SBR_DATA_SEED: u64 = 2017;

pub struct SbrInput {
    seed: u64,
    /// Complete ticks that fill the window during set-up.
    pub fill: Vec<StreamTick>,
    /// Complete ticks after the window: the truth the measured phase is
    /// scored against.
    pub truth: Vec<StreamTick>,
}

pub fn sbr(seed: u64) -> SbrInput {
    let dataset = SbrConfig {
        stations: SBR_STATIONS,
        days: SBR_WINDOW / TICKS_PER_DAY + SBR_EXTRA_DAYS,
        seed: SBR_DATA_SEED,
        ..SbrConfig::default()
    }
    .generate();
    let mut ticks: Vec<StreamTick> = dataset.to_stream().ticks().collect();
    let truth = ticks.split_off(SBR_WINDOW);
    SbrInput {
        seed,
        fill: ticks,
        truth,
    }
}

impl SbrInput {
    /// Measured tick `j` as the engine receives it: the truth with the
    /// outage punched in.  Outages come in rounds of one per station, in an
    /// order the seed shuffles, so every seed hits each station equally
    /// often and only the placement differs.
    pub fn measured(&self, j: usize) -> StreamTick {
        let mut tick = self.truth[j].clone();
        if j % SBR_OUTAGE_EVERY < SBR_OUTAGE_LEN {
            let outage = j / SBR_OUTAGE_EVERY;
            let round = (outage / SBR_STATIONS) as u64;
            let mut order: Vec<usize> = (0..SBR_STATIONS).collect();
            order.sort_by_key(|&s| mix(self.seed ^ mix(round ^ mix(s as u64))));
            tick.values[order[outage % SBR_STATIONS]] = None;
        }
        tick
    }
}

pub fn sbr_catalog() -> Catalog {
    Catalog::ring_neighbours(SBR_STATIONS)
}

// == fleet_ingest / fleet_recover: a wide fleet of small clusters ==

pub const FLEET_CLUSTERS: usize = 24;
pub const FLEET_SERIES_PER_CLUSTER: usize = 6;
pub const FLEET_WIDTH: usize = FLEET_CLUSTERS * FLEET_SERIES_PER_CLUSTER;
/// One week of 5-minute data.
pub const FLEET_WINDOW: usize = 7 * TICKS_PER_DAY;
/// Rare outages: each series loses `FLEET_OUTAGE_LEN` ticks once every
/// `FLEET_OUTAGE_EVERY` ticks, at a per-series phase.
const FLEET_OUTAGE_EVERY: usize = 3000;
const FLEET_OUTAGE_LEN: usize = 2;

fn fleet_shape() -> FleetConfig {
    FleetConfig {
        clusters: FLEET_CLUSTERS,
        series_per_cluster: FLEET_SERIES_PER_CLUSTER,
        ..FleetConfig::default()
    }
}

/// The within-cluster ring catalog of `FleetConfig`: one catalog component
/// per cluster.
pub fn fleet_catalog() -> Catalog {
    fleet_shape().catalog()
}

/// splitmix64: a stateless hash, so any tick of any series can be generated
/// on demand without keeping the fleet's history in memory.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(seed: u64, a: u64, b: u64) -> f64 {
    (mix(seed ^ mix(a ^ mix(b))) >> 11) as f64 / (1u64 << 53) as f64
}

fn normal(seed: u64, a: u64, b: u64) -> f64 {
    let u1 = unit(seed, a, b.wrapping_mul(2)).max(f64::MIN_POSITIVE);
    let u2 = unit(seed, a, b.wrapping_mul(2) + 1);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

struct Member {
    cluster: usize,
    delay: usize,
    scale: f64,
    offset: f64,
    outage_phase: usize,
}

/// Size of the table the measurement noise is drawn from.
const NOISE_TABLE: usize = 1 << 16;

/// The signal model of `tkcm_datasets::FleetConfig` (a daily fundamental
/// plus a second harmonic per cluster; members are delayed, scaled, offset
/// copies plus N(0, 0.01) noise), generated tick by tick.  The repository
/// generator materialises every value up front, which for the ~10^5 ticks ×
/// 144 series a run may need would dominate the benchmark's memory; here
/// the cluster signals (exactly periodic over a day) and the noise come
/// from small tables, so generating a batch costs well under 1 % of
/// processing it.
pub struct FleetGen {
    seed: u64,
    /// `daily[cluster][t % TICKS_PER_DAY]`: the cluster signal.
    daily: Vec<Vec<f64>>,
    members: Vec<Member>,
    noise: Vec<f64>,
}

impl FleetGen {
    pub fn new(seed: u64) -> FleetGen {
        let day = TICKS_PER_DAY as f64;
        let daily = (0..FLEET_CLUSTERS as u64)
            .map(|c| {
                let phase = unit(seed, 1, c) * day;
                let harmonic_phase = unit(seed, 2, c) * day;
                let harmonic_mix = 0.2 + 0.4 * unit(seed, 3, c);
                let amplitude = 0.5 + unit(seed, 4, c);
                (0..TICKS_PER_DAY)
                    .map(|t| {
                        let tf = t as f64;
                        let fundamental = ((tf + phase) / day * std::f64::consts::TAU).sin();
                        let harmonic =
                            ((tf + harmonic_phase) / day * 2.0 * std::f64::consts::TAU).sin();
                        amplitude * (fundamental + harmonic_mix * harmonic)
                    })
                    .collect()
            })
            .collect();
        let members = (0..FLEET_WIDTH as u64)
            .map(|s| Member {
                cluster: s as usize / FLEET_SERIES_PER_CLUSTER,
                delay: (unit(seed, 5, s) * 18.0) as usize,
                scale: 0.7 + 0.6 * unit(seed, 6, s),
                offset: 0.3 * normal(seed, 7, s),
                outage_phase: (unit(seed, 8, s) * FLEET_OUTAGE_EVERY as f64) as usize,
            })
            .collect();
        let noise = (0..NOISE_TABLE as u64)
            .map(|i| 0.01 * normal(seed, 9, i))
            .collect();
        FleetGen {
            seed,
            daily,
            members,
            noise,
        }
    }

    /// The true value of `series` at tick `t`.
    pub fn truth(&self, series: usize, t: usize) -> f64 {
        let m = &self.members[series];
        let phase = (t + TICKS_PER_DAY - m.delay) % TICKS_PER_DAY;
        let draw = mix(self.seed ^ ((series as u64) << 40) ^ t as u64) as usize % NOISE_TABLE;
        m.scale * self.daily[m.cluster][phase] + m.offset + self.noise[draw]
    }

    fn tick_with(&self, t: usize, missing: impl Fn(usize) -> bool) -> StreamTick {
        let values = (0..FLEET_WIDTH)
            .map(|s| (!missing(s)).then(|| self.truth(s, t)))
            .collect();
        StreamTick::new(Timestamp::new(t as i64 * TICK_SECONDS), values)
    }

    /// Tick `t` with the rare outages, which start once the window is full.
    pub fn tick(&self, t: usize) -> StreamTick {
        self.tick_with(t, |s| {
            t >= FLEET_WINDOW
                && (t + self.members[s].outage_phase) % FLEET_OUTAGE_EVERY < FLEET_OUTAGE_LEN
        })
    }

    /// Tick `t` with a dense outage pattern: four clusters (rotating) each
    /// lose one member.  Used for the ticks a recovered fleet processes
    /// first, so its imputations can be compared and scored.
    pub fn dense_tick(&self, t: usize) -> StreamTick {
        self.tick_with(t, |s| {
            let cluster = s / FLEET_SERIES_PER_CLUSTER;
            let member = s % FLEET_SERIES_PER_CLUSTER;
            (cluster + t).is_multiple_of(6)
                && member == (t / 6 + cluster) % FLEET_SERIES_PER_CLUSTER
        })
    }
}
