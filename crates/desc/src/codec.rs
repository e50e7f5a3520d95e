//! JSON round-tripping for descriptions, on the in-repo
//! [`pels_obs::json`] parser — no external dependencies.
//!
//! Emission is *canonical*: every key is written, in a fixed order, with
//! exact-integer picosecond fields (`freq_period_ps`,
//! `sample_period_ps`) so that `from_json(d.to_json()) == d` holds
//! bit-for-bit for every valid description. Decoding rejects unknown
//! keys and carries the JSON path of the first offending value in the
//! returned [`DescError`].

use crate::error::DescError;
use crate::kinds::{ExecMode, Mediator, SensorKind};
use crate::scenario::ScenarioDesc;
use crate::system::{PelsDesc, PeriphInst, PeriphKind, SystemDesc};
use pels_interconnect::{ArbiterKind, Topology};
use pels_obs::json::{self, Value};
use pels_obs::json_object;
use pels_sim::{Frequency, SimTime};

/// The description schema version this crate reads and writes.
pub const SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------------------
// Decode helpers
// ---------------------------------------------------------------------

fn as_obj<'a>(v: &'a Value, path: &str) -> Result<&'a [(String, Value)], DescError> {
    v.as_object()
        .ok_or_else(|| DescError::new(path, "expected an object"))
}

fn req<'a>(
    obj: &'a [(String, Value)],
    key: &str,
    path: &str,
) -> Result<&'a Value, DescError> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| DescError::new(path, format!("missing required key `{key}`")))
}

fn opt<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn check_keys(
    obj: &[(String, Value)],
    allowed: &[&str],
    path: &str,
) -> Result<(), DescError> {
    for (k, _) in obj {
        if !allowed.contains(&k.as_str()) {
            return Err(DescError::new(
                format!("{path}/{k}"),
                format!("unknown key `{k}`"),
            ));
        }
    }
    Ok(())
}

fn dec_f64(v: &Value, path: &str) -> Result<f64, DescError> {
    v.as_f64()
        .ok_or_else(|| DescError::new(path, "expected a number"))
}

fn dec_u64(v: &Value, path: &str) -> Result<u64, DescError> {
    v.as_u64()
        .ok_or_else(|| DescError::new(path, "expected a non-negative integer"))
}

fn dec_u32(v: &Value, path: &str) -> Result<u32, DescError> {
    let n = dec_u64(v, path)?;
    u32::try_from(n)
        .map_err(|_| DescError::new(path, format!("{n} does not fit a 32-bit integer")))
}

fn dec_usize(v: &Value, path: &str) -> Result<usize, DescError> {
    Ok(dec_u64(v, path)? as usize)
}

fn dec_bool(v: &Value, path: &str) -> Result<bool, DescError> {
    v.as_bool()
        .ok_or_else(|| DescError::new(path, "expected a boolean"))
}

fn dec_str<'a>(v: &'a Value, path: &str) -> Result<&'a str, DescError> {
    v.as_str()
        .ok_or_else(|| DescError::new(path, "expected a string"))
}

/// `schema_version`, where present, must be the one we speak.
fn check_version(obj: &[(String, Value)], path: &str, required: bool) -> Result<(), DescError> {
    let vpath = format!("{path}/schema_version");
    match opt(obj, "schema_version") {
        None if required => Err(DescError::new(
            path,
            "missing required key `schema_version`",
        )),
        None => Ok(()),
        Some(v) => {
            let n = dec_u64(v, &vpath)?;
            if n != SCHEMA_VERSION {
                return Err(DescError::new(
                    vpath,
                    format!("unsupported schema_version {n} (this build reads {SCHEMA_VERSION})"),
                ));
            }
            Ok(())
        }
    }
}

fn dec_sensor(v: &Value, path: &str) -> Result<SensorKind, DescError> {
    let obj = as_obj(v, path)?;
    let kind = dec_str(req(obj, "kind", path)?, &format!("{path}/kind"))?;
    let field = |key: &str| -> Result<f64, DescError> {
        dec_f64(req(obj, key, path)?, &format!("{path}/{key}"))
    };
    match kind {
        "constant" => {
            check_keys(obj, &["kind", "level"], path)?;
            Ok(SensorKind::Constant(field("level")?))
        }
        "ramp" => {
            check_keys(obj, &["kind", "start", "slope_per_us"], path)?;
            Ok(SensorKind::Ramp {
                start: field("start")?,
                slope_per_us: field("slope_per_us")?,
            })
        }
        "noisy-ramp" => {
            check_keys(obj, &["kind", "start", "slope_per_us", "sigma", "seed"], path)?;
            Ok(SensorKind::NoisyRamp {
                start: field("start")?,
                slope_per_us: field("slope_per_us")?,
                sigma: field("sigma")?,
                seed: dec_u64(req(obj, "seed", path)?, &format!("{path}/seed"))?,
            })
        }
        "sine" => {
            check_keys(obj, &["kind", "offset", "amplitude", "freq_hz"], path)?;
            Ok(SensorKind::Sine {
                offset: field("offset")?,
                amplitude: field("amplitude")?,
                freq_hz: field("freq_hz")?,
            })
        }
        other => Err(DescError::new(
            format!("{path}/kind"),
            format!("unknown sensor kind `{other}`"),
        )),
    }
}

fn dec_periph(v: &Value, path: &str) -> Result<PeriphInst, DescError> {
    let obj = as_obj(v, path)?;
    let kind = dec_str(req(obj, "kind", path)?, &format!("{path}/kind"))?;
    let offset = dec_u32(req(obj, "offset", path)?, &format!("{path}/offset"))?;
    let plain = |k: PeriphKind| -> Result<PeriphKind, DescError> {
        check_keys(obj, &["kind", "offset"], path)?;
        Ok(k)
    };
    let kind = match kind {
        "gpio" => plain(PeriphKind::Gpio)?,
        "timer" => plain(PeriphKind::Timer)?,
        "uart" => plain(PeriphKind::Uart)?,
        "wdt" => plain(PeriphKind::Wdt)?,
        "i2c" => plain(PeriphKind::I2c)?,
        "spi" => {
            check_keys(obj, &["kind", "offset", "clkdiv"], path)?;
            PeriphKind::Spi {
                clkdiv: dec_u32(req(obj, "clkdiv", path)?, &format!("{path}/clkdiv"))?,
            }
        }
        "adc" => {
            check_keys(obj, &["kind", "offset", "conversion_cycles"], path)?;
            PeriphKind::Adc {
                conversion_cycles: dec_u32(
                    req(obj, "conversion_cycles", path)?,
                    &format!("{path}/conversion_cycles"),
                )?,
            }
        }
        other => {
            return Err(DescError::new(
                format!("{path}/kind"),
                format!("unknown peripheral kind `{other}`"),
            ))
        }
    };
    Ok(PeriphInst { kind, offset })
}

fn dec_freq(obj: &[(String, Value)], path: &str) -> Result<Frequency, DescError> {
    let ps = opt(obj, "freq_period_ps");
    let mhz = opt(obj, "freq_mhz");
    match (ps, mhz) {
        (Some(_), Some(_)) => Err(DescError::new(
            format!("{path}/freq_mhz"),
            "specify exactly one of `freq_period_ps` and `freq_mhz`",
        )),
        (Some(v), None) => {
            let p = format!("{path}/freq_period_ps");
            let ps = dec_u64(v, &p)?;
            if ps == 0 {
                return Err(DescError::new(p, "clock period must be at least 1 ps"));
            }
            Ok(Frequency::from_period_ps(ps))
        }
        (None, Some(v)) => {
            let p = format!("{path}/freq_mhz");
            let mhz = dec_f64(v, &p)?;
            if !(mhz > 0.0 && mhz.is_finite()) {
                return Err(DescError::new(p, "frequency must be positive and finite"));
            }
            Ok(Frequency::from_mhz(mhz))
        }
        (None, None) => Err(DescError::new(
            path,
            "missing required key `freq_period_ps` (or `freq_mhz`)",
        )),
    }
}

const SYSTEM_KEYS: &[&str] = &[
    "schema_version",
    "freq_period_ps",
    "freq_mhz",
    "pels",
    "sensor",
    "topology",
    "arbiter",
    "timer_starts_spi",
    "peripherals",
];

fn dec_system(v: &Value, path: &str, version_required: bool) -> Result<SystemDesc, DescError> {
    let obj = as_obj(v, path)?;
    check_keys(obj, SYSTEM_KEYS, path)?;
    check_version(obj, path, version_required)?;
    let freq = dec_freq(obj, path)?;

    let pels_path = format!("{path}/pels");
    let pels_obj = as_obj(req(obj, "pels", path)?, &pels_path)?;
    check_keys(pels_obj, &["links", "scm_lines", "fifo_depth"], &pels_path)?;
    let pels = PelsDesc {
        links: dec_usize(req(pels_obj, "links", &pels_path)?, &format!("{pels_path}/links"))?,
        scm_lines: dec_usize(
            req(pels_obj, "scm_lines", &pels_path)?,
            &format!("{pels_path}/scm_lines"),
        )?,
        fifo_depth: dec_usize(
            req(pels_obj, "fifo_depth", &pels_path)?,
            &format!("{pels_path}/fifo_depth"),
        )?,
    };

    let sensor = dec_sensor(req(obj, "sensor", path)?, &format!("{path}/sensor"))?;

    let topo_path = format!("{path}/topology");
    let topology = match dec_str(req(obj, "topology", path)?, &topo_path)? {
        "shared" => Topology::Shared,
        "per-slave crossbar" => Topology::PerSlaveCrossbar,
        other => {
            return Err(DescError::new(
                topo_path,
                format!("unknown topology `{other}`"),
            ))
        }
    };

    let arb_path = format!("{path}/arbiter");
    let arbiter = match dec_str(req(obj, "arbiter", path)?, &arb_path)? {
        "round-robin" => ArbiterKind::RoundRobin,
        "fixed-priority" => ArbiterKind::FixedPriority,
        other => {
            return Err(DescError::new(
                arb_path,
                format!("unknown arbiter `{other}`"),
            ))
        }
    };

    let timer_starts_spi = dec_bool(
        req(obj, "timer_starts_spi", path)?,
        &format!("{path}/timer_starts_spi"),
    )?;

    let list_path = format!("{path}/peripherals");
    let list = req(obj, "peripherals", path)?
        .as_array()
        .ok_or_else(|| DescError::new(&list_path, "expected an array"))?;
    let mut peripherals = Vec::with_capacity(list.len());
    for (i, item) in list.iter().enumerate() {
        peripherals.push(dec_periph(item, &format!("{list_path}/{i}"))?);
    }

    Ok(SystemDesc {
        freq,
        pels,
        sensor,
        topology,
        arbiter,
        timer_starts_spi,
        peripherals,
    })
}

const SCENARIO_KEYS: &[&str] = &[
    "schema_version",
    "mediator",
    "threshold_level",
    "sample_period_ps",
    "spi_words",
    "events",
    "rmw_only",
    "use_udma",
    "exec",
    "obs",
    "timeline_window",
    "flows",
    "lifetime",
    "system",
];

fn dec_scenario(v: &Value, path: &str) -> Result<ScenarioDesc, DescError> {
    let obj = as_obj(v, path)?;
    check_keys(obj, SCENARIO_KEYS, path)?;
    check_version(obj, path, true)?;

    let med_path = format!("{path}/mediator");
    let mediator = dec_str(req(obj, "mediator", path)?, &med_path).and_then(|s| {
        Mediator::from_name(s)
            .ok_or_else(|| DescError::new(&med_path, format!("unknown mediator `{s}`")))
    })?;

    let exec_path = format!("{path}/exec");
    let exec = dec_str(req(obj, "exec", path)?, &exec_path).and_then(|s| {
        ExecMode::from_name(s)
            .ok_or_else(|| DescError::new(&exec_path, format!("unknown exec mode `{s}`")))
    })?;

    let sample_period = SimTime::from_ps(dec_u64(
        req(obj, "sample_period_ps", path)?,
        &format!("{path}/sample_period_ps"),
    )?);

    let system = dec_system(req(obj, "system", path)?, &format!("{path}/system"), false)?;

    Ok(ScenarioDesc {
        system,
        mediator,
        threshold_level: dec_f64(
            req(obj, "threshold_level", path)?,
            &format!("{path}/threshold_level"),
        )?,
        sample_period,
        spi_words: dec_u32(req(obj, "spi_words", path)?, &format!("{path}/spi_words"))?,
        events: dec_u32(req(obj, "events", path)?, &format!("{path}/events"))?,
        rmw_only: dec_bool(req(obj, "rmw_only", path)?, &format!("{path}/rmw_only"))?,
        use_udma: dec_bool(req(obj, "use_udma", path)?, &format!("{path}/use_udma"))?,
        exec,
        obs: dec_bool(req(obj, "obs", path)?, &format!("{path}/obs"))?,
        timeline_window: dec_u64(
            req(obj, "timeline_window", path)?,
            &format!("{path}/timeline_window"),
        )?,
        // Optional (defaults off) so descriptions written before the
        // causal-flow layer still parse; emission always writes it.
        flows: match opt(obj, "flows") {
            Some(v) => dec_bool(v, &format!("{path}/flows"))?,
            None => false,
        },
        // Optional like `flows`: descriptions written before the
        // energy-ledger layer still parse; emission always writes it.
        lifetime: match opt(obj, "lifetime") {
            Some(v) => dec_bool(v, &format!("{path}/lifetime"))?,
            None => false,
        },
    })
}

// ---------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------

fn sensor_value(sensor: SensorKind) -> Value {
    match sensor {
        SensorKind::Constant(level) => json_object! { "kind" => "constant", "level" => level },
        SensorKind::Ramp { start, slope_per_us } => json_object! {
            "kind" => "ramp", "start" => start, "slope_per_us" => slope_per_us,
        },
        SensorKind::NoisyRamp {
            start,
            slope_per_us,
            sigma,
            seed,
        } => json_object! {
            "kind" => "noisy-ramp", "start" => start, "slope_per_us" => slope_per_us,
            "sigma" => sigma, "seed" => seed,
        },
        SensorKind::Sine {
            offset,
            amplitude,
            freq_hz,
        } => json_object! {
            "kind" => "sine", "offset" => offset, "amplitude" => amplitude, "freq_hz" => freq_hz,
        },
    }
}

fn periph_value(p: &PeriphInst) -> Value {
    let mut pairs = vec![("kind", p.kind.name().into()), ("offset", p.offset.into())];
    match p.kind {
        PeriphKind::Spi { clkdiv } => pairs.push(("clkdiv", clkdiv.into())),
        PeriphKind::Adc { conversion_cycles } => {
            pairs.push(("conversion_cycles", conversion_cycles.into()));
        }
        _ => {}
    }
    Value::object(pairs)
}

/// A system description's object; only a root document carries the
/// schema version.
fn system_value(d: &SystemDesc, root: bool) -> Value {
    let version = root.then(|| ("schema_version", SCHEMA_VERSION.into()));
    let pels = json_object! {
        "links" => d.pels.links, "scm_lines" => d.pels.scm_lines, "fifo_depth" => d.pels.fifo_depth,
    };
    let fields = [
        ("freq_period_ps", d.freq.period_ps().into()),
        ("pels", pels),
        ("sensor", sensor_value(d.sensor)),
        ("topology", d.topology.to_string().into()),
        ("arbiter", d.arbiter.to_string().into()),
        ("timer_starts_spi", d.timer_starts_spi.into()),
        ("peripherals", Value::Arr(d.peripherals.iter().map(periph_value).collect())),
    ];
    Value::object(version.into_iter().chain(fields))
}

impl SystemDesc {
    /// Serializes to canonical JSON (every key, fixed order, exact
    /// integer picoseconds). [`SystemDesc::from_json`] of the result is
    /// identical to `self` for every valid description.
    pub fn to_json(&self) -> String {
        json::to_string(&system_value(self, true))
    }

    /// Parses, decodes and validates a description document.
    ///
    /// # Errors
    ///
    /// [`DescError`] carrying the JSON path of the first problem:
    /// malformed JSON (path `""`), an unknown key, a wrong type, a
    /// missing key, or any [`SystemDesc::validate`] failure.
    pub fn from_json(text: &str) -> Result<Self, DescError> {
        let doc = json::parse(text)
            .map_err(|e| DescError::new("", format!("malformed JSON: {e}")))?;
        let desc = dec_system(&doc, "", true)?;
        desc.validate()?;
        Ok(desc)
    }
}

impl ScenarioDesc {
    /// Serializes to canonical JSON (every key, fixed order, exact
    /// integer picoseconds, the system nested under `"system"`).
    /// [`ScenarioDesc::from_json`] of the result is identical to `self`
    /// for every valid description.
    pub fn to_json(&self) -> String {
        json::to_string(&json_object! {
            "schema_version" => SCHEMA_VERSION,
            "mediator" => self.mediator.to_string(),
            "threshold_level" => self.threshold_level,
            "sample_period_ps" => self.sample_period.as_ps(),
            "spi_words" => self.spi_words,
            "events" => self.events,
            "rmw_only" => self.rmw_only,
            "use_udma" => self.use_udma,
            "exec" => self.exec.to_string(),
            "obs" => self.obs,
            "timeline_window" => self.timeline_window,
            "flows" => self.flows,
            "lifetime" => self.lifetime,
            "system" => system_value(&self.system, false),
        })
    }

    /// Parses, decodes and validates a scenario description document.
    ///
    /// # Errors
    ///
    /// [`DescError`] carrying the JSON path of the first problem:
    /// malformed JSON (path `""`), an unknown key, a wrong type, a
    /// missing key, or any [`ScenarioDesc::validate`] failure.
    pub fn from_json(text: &str) -> Result<Self, DescError> {
        let doc = json::parse(text)
            .map_err(|e| DescError::new("", format!("malformed JSON: {e}")))?;
        let desc = dec_scenario(&doc, "")?;
        desc.validate()?;
        Ok(desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_descs_round_trip() {
        let d = SystemDesc::default();
        assert_eq!(SystemDesc::from_json(&d.to_json()).unwrap(), d);
        let s = ScenarioDesc::default();
        assert_eq!(ScenarioDesc::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn non_default_desc_round_trips() {
        let mut s = ScenarioDesc {
            mediator: Mediator::IbexIrq,
            exec: ExecMode::Naive,
            ..ScenarioDesc::default()
        };
        s.system.topology = Topology::PerSlaveCrossbar;
        s.system.arbiter = ArbiterKind::FixedPriority;
        s.system.sensor = SensorKind::NoisyRamp {
            start: 0.25,
            slope_per_us: 0.125,
            sigma: 0.0625,
            seed: 0xDEAD_BEEF,
        };
        s.system.pels.links = 8;
        s.system.peripherals.swap(0, 6);
        s.timeline_window = 128;
        assert_eq!(ScenarioDesc::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn malformed_json_reports_at_root() {
        let e = SystemDesc::from_json("{ not json").unwrap_err();
        assert_eq!(e.path, "");
        assert!(e.message.contains("malformed JSON"), "{e}");
    }

    #[test]
    fn deep_nesting_is_a_root_error_not_a_stack_overflow() {
        let e = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| ScenarioDesc::from_json(&"[".repeat(100_000)).unwrap_err())
            .unwrap()
            .join()
            .expect("decoder must not overflow the stack");
        assert_eq!(e.path, "");
        assert!(e.message.contains("nesting too deep"), "{e}");
    }

    #[test]
    fn unknown_keys_are_rejected_with_paths() {
        let mut text = SystemDesc::default().to_json();
        text = text.replace("\"topology\"", "\"topographies\"");
        let e = SystemDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/topographies");
        assert!(e.message.contains("unknown key"), "{e}");

        let mut s = ScenarioDesc::default().to_json();
        s = s.replace("\"obs\"", "\"observe\"");
        let e = ScenarioDesc::from_json(&s).unwrap_err();
        assert_eq!(e.path, "/observe");
    }

    #[test]
    fn out_of_range_values_report_paths_and_messages() {
        // Zero frequency.
        let text = SystemDesc::default()
            .to_json()
            .replace("\"freq_period_ps\": 18182", "\"freq_period_ps\": 0");
        let e = SystemDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/freq_period_ps");
        assert!(e.message.contains("at least 1 ps"), "{e}");

        // Zero clkdiv.
        let text = SystemDesc::default()
            .to_json()
            .replace("\"clkdiv\": 4", "\"clkdiv\": 0");
        let e = SystemDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/peripherals/2/clkdiv");
        assert!(e.message.contains("at least 1"), "{e}");

        // No links.
        let text = SystemDesc::default()
            .to_json()
            .replace("\"links\": 1,", "\"links\": 0,");
        let e = SystemDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/pels/links");
        assert!(e.message.contains("between 1 and 64"), "{e}");

        // The same failure inside a scenario reports under /system.
        let text = ScenarioDesc::default()
            .to_json()
            .replace("\"links\": 1,", "\"links\": 0,");
        let e = ScenarioDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/system/pels/links");
    }

    #[test]
    fn type_and_key_errors_report_paths() {
        let text = SystemDesc::default()
            .to_json()
            .replace("\"timer_starts_spi\": true", "\"timer_starts_spi\": 1");
        let e = SystemDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/timer_starts_spi");
        assert!(e.message.contains("boolean"), "{e}");

        let text = ScenarioDesc::default()
            .to_json()
            .replace("\"mediator\": \"pels-sequenced\"", "\"mediator\": \"smi\"");
        let e = ScenarioDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/mediator");
        assert!(e.message.contains("unknown mediator"), "{e}");

        let text = SystemDesc::default()
            .to_json()
            .replace("\"kind\": \"wdt\"", "\"kind\": \"dma\"");
        let e = SystemDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/peripherals/5/kind");
        assert!(e.message.contains("unknown peripheral kind `dma`"), "{e}");
    }

    #[test]
    fn schema_version_is_required_and_checked() {
        let text = SystemDesc::default()
            .to_json()
            .replace("  \"schema_version\": 1,\n", "");
        let e = SystemDesc::from_json(&text).unwrap_err();
        assert!(e.message.contains("schema_version"), "{e}");

        let text = ScenarioDesc::default()
            .to_json()
            .replace("\"schema_version\": 1", "\"schema_version\": 99");
        let e = ScenarioDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/schema_version");
        assert!(e.message.contains("unsupported"), "{e}");
    }

    #[test]
    fn freq_mhz_is_accepted_but_not_alongside_period() {
        let text = SystemDesc::default()
            .to_json()
            .replace("\"freq_period_ps\": 18182", "\"freq_mhz\": 55");
        let d = SystemDesc::from_json(&text).unwrap();
        assert_eq!(d.freq, Frequency::from_mhz(55.0));

        let text = SystemDesc::default().to_json().replace(
            "\"freq_period_ps\": 18182",
            "\"freq_period_ps\": 18182, \"freq_mhz\": 55",
        );
        let e = SystemDesc::from_json(&text).unwrap_err();
        assert_eq!(e.path, "/freq_mhz");
        assert!(e.message.contains("exactly one"), "{e}");
    }
}
