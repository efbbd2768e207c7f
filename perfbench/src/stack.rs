//! The traced launch path: the same Driver → Bcu → Gpu calls that
//! [`gpushield::System`] makes, issued directly so each layer's public
//! function can be wrapped in a span.
//!
//! Every method mirrors the `System` method of the same name step for
//! step (including the flight-recorder events), so a traced run produces
//! the same reports as the untraced `System` path; the workloads check
//! that on every traced operation.

use crate::trace::Tracer;
use gpushield::{
    Arg, Bcu, BcuStats, BufferHandle, Driver, FlightEvent, FlightRecorder, Gpu, MemGuard,
    PostMortem, RunReport, ShieldSetup, SiteClaim, SystemConfig, SystemError, TenantId,
    TenantTable, ViolationRecord,
};
use gpushield_compiler::BoundsAnalysis;
use gpushield_driver::{read_entry, PreparedLaunch};
use gpushield_isa::Kernel;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Which simulator entry point a launch takes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// `Gpu::run`, or `Gpu::run_observed` when the recorder is attached.
    Default,
    /// `Gpu::run_recorded` (the soundness-audit path).
    Recorded,
}

/// Driver, BCU and GPU of one simulated system, driven directly.
pub struct Stack {
    driver: Driver,
    gpu: Gpu,
    bcu: Option<Bcu>,
    flight: Option<FlightRecorder>,
    seen_region_ids: HashSet<u16>,
    buffer_seq: u32,
    last_bat: Option<BoundsAnalysis>,
    /// Host nanoseconds of every simulator call.
    pub run_ns: Vec<f64>,
}

impl Stack {
    /// Builds the layers as `System::new` does.
    pub fn new(t: &mut Tracer, cfg: &SystemConfig) -> Self {
        t.time("driver.new", || Stack {
            driver: Driver::new(cfg.driver, cfg.seed),
            gpu: Gpu::new(cfg.gpu.clone()),
            bcu: cfg
                .shield_enabled()
                .then(|| Bcu::new(cfg.bcu, cfg.gpu.num_cores)),
            flight: None,
            seen_region_ids: HashSet::new(),
            buffer_seq: 0,
            last_bat: None,
            run_ns: Vec::new(),
        })
    }

    /// Attaches the full flight recorder (`ObserveMode::Full`).
    pub fn observe_full(&mut self) {
        self.flight = Some(FlightRecorder::full());
    }

    /// The attached recorder.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// The driver (host-side buffer access).
    pub fn driver(&self) -> &Driver {
        &self.driver
    }

    /// BCU statistics (zero when the shield is off).
    pub fn bcu_stats(&self) -> BcuStats {
        self.bcu.as_ref().map(Bcu::stats).unwrap_or_default()
    }

    /// The cumulative violation log.
    pub fn violations(&self) -> &[ViolationRecord] {
        self.bcu.as_ref().map(|b| b.violations()).unwrap_or(&[])
    }

    /// The Bounds-Analysis Table of the most recent launch.
    pub fn last_bat(&self) -> Option<&BoundsAnalysis> {
        self.last_bat.as_ref()
    }

    /// `System::alloc`.
    pub fn alloc(&mut self, t: &mut Tracer, bytes: u64) -> Result<BufferHandle, SystemError> {
        let h = t.time("driver.alloc", || self.driver.malloc(bytes))?;
        let index = self.buffer_seq;
        self.buffer_seq += 1;
        if let Some(f) = self.flight.as_mut() {
            f.note(FlightEvent::BufferAlloc {
                index,
                base: self.driver.buffer_va(h),
                size: self.driver.buffer_size(h),
            });
        }
        Ok(h)
    }

    /// `System::set_heap_limit`.
    pub fn set_heap_limit(&mut self, t: &mut Tracer, bytes: u64) -> Result<(), SystemError> {
        t.time("driver.alloc", || self.driver.set_heap_limit(bytes))?;
        Ok(())
    }

    /// `System::write_buffer`.
    pub fn write_buffer(&mut self, t: &mut Tracer, h: BufferHandle, offset: u64, bytes: &[u8]) {
        t.time("driver.host_io", || {
            self.driver.write_buffer(h, offset, bytes)
        });
    }

    /// `System::read_uint`.
    pub fn read_uint(&self, t: &mut Tracer, h: BufferHandle, offset: u64, width: u64) -> u64 {
        t.time("driver.host_io", || {
            self.driver.read_buffer_uint(h, offset, width)
        })
    }

    /// `System::post_mortem`, rendered as JSON.
    pub fn post_mortem_json(&self, t: &mut Tracer) -> Option<String> {
        let f = self.flight.as_ref()?;
        t.time("telemetry.post_mortem", || {
            PostMortem::from_recorder(f).map(|p| p.render_json())
        })
    }

    fn attach_shield(&mut self, t: &mut Tracer, shield: Option<ShieldSetup>, region_ids: &[u16]) {
        let Some(bcu) = self.bcu.as_mut() else { return };
        let Some(setup) = shield else { return };
        let prime = self.driver.config().enable_elision;
        let vm = self.driver.vm();
        t.time("core.register", || {
            bcu.register_kernel(setup);
            if prime {
                for &id in region_ids {
                    bcu.prime_region(setup.kernel_id, id, vm);
                }
            }
        });
    }

    /// `System::note_prepared`: the launch-preparation events.
    fn record_prepared(&mut self, t: &mut Tracer, prepared: &PreparedLaunch) {
        if self.flight.is_some() {
            t.time("telemetry.record", || self.note_prepared(prepared));
        }
    }

    fn note_prepared(&mut self, prepared: &PreparedLaunch) {
        let mut regions: Vec<(u16, u64, u64, bool)> = Vec::new();
        if let Some(setup) = prepared.shield {
            for &id in &prepared.region_ids {
                let recycled = !self.seen_region_ids.insert(id);
                let (base, size) = read_entry(self.driver.vm(), setup.rbt_base, id)
                    .map(|e| (e.base, u64::from(e.size)))
                    .unwrap_or((0, 0));
                regions.push((id, base, size, recycled));
            }
        }
        let Some(f) = self.flight.as_mut() else {
            return;
        };
        f.note(FlightEvent::KernelLaunch {
            kernel_id: prepared.launch.kernel_id,
            regions: prepared.region_ids.len() as u16,
        });
        for (id, base, size, recycled) in regions {
            if recycled {
                f.note(FlightEvent::RegionRecycle { id });
            }
            f.note(FlightEvent::RegionAlloc { id, base, size });
        }
        if let Some(bat) = &prepared.bat {
            f.note(FlightEvent::BatInstall {
                kernel_id: prepared.launch.kernel_id,
                sites_static: bat.sites_static as u16,
                sites_runtime: bat.sites_runtime as u16,
            });
            for site in &bat.elided_sites {
                f.note(FlightEvent::CheckElide {
                    block: site.0 .0,
                    idx: site.1 as u32,
                });
            }
        }
    }

    fn run(
        &mut self,
        t: &mut Tracer,
        prepared: &PreparedLaunch,
        engine: Engine,
    ) -> Result<RunReport, SystemError> {
        let launches = std::slice::from_ref(&prepared.launch);
        let vm = self.driver.vm_mut();
        let guard = self.bcu.as_mut().map(|b| b as &mut dyn MemGuard);
        let gpu = &mut self.gpu;
        let flight = self.flight.as_mut();
        let start = Instant::now();
        let report = t.time("sim.run", || match (engine, flight) {
            (Engine::Recorded, _) => gpu.run_recorded(vm, launches, guard),
            (Engine::Default, Some(f)) => gpu.run_observed(vm, launches, guard, f),
            (Engine::Default, None) => gpu.run(vm, launches, guard),
        })?;
        self.run_ns.push(start.elapsed().as_nanos() as f64);
        Ok(report)
    }

    fn launch_with(
        &mut self,
        t: &mut Tracer,
        kernel: Arc<Kernel>,
        grid: u32,
        block: u32,
        args: &[Arg],
        engine: Engine,
    ) -> Result<(RunReport, Vec<SiteClaim>), SystemError> {
        let prepared = t.time("driver.prepare", || {
            self.driver.prepare_launch(kernel, grid, block, args)
        })?;
        self.attach_shield(t, prepared.shield, &prepared.region_ids);
        self.record_prepared(t, &prepared);
        let report = self.run(t, &prepared, engine)?;
        self.last_bat = prepared.bat;
        if let Some(f) = self.flight.as_mut() {
            f.advance_epoch(report.cycles);
        }
        Ok((report, prepared.site_claims))
    }

    /// `System::launch`.
    pub fn launch(
        &mut self,
        t: &mut Tracer,
        kernel: Arc<Kernel>,
        grid: u32,
        block: u32,
        args: &[Arg],
    ) -> Result<RunReport, SystemError> {
        self.launch_with(t, kernel, grid, block, args, Engine::Default)
            .map(|(r, _)| r)
    }

    /// `System::launch_audited`.
    pub fn launch_audited(
        &mut self,
        t: &mut Tracer,
        kernel: Arc<Kernel>,
        grid: u32,
        block: u32,
        args: &[Arg],
    ) -> Result<(RunReport, Vec<SiteClaim>), SystemError> {
        self.launch_with(t, kernel, grid, block, args, Engine::Recorded)
    }

    /// `System::launch_tenant`.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_tenant(
        &mut self,
        t: &mut Tracer,
        tenants: &mut TenantTable,
        tenant: TenantId,
        kernel: Arc<Kernel>,
        grid: u32,
        block: u32,
        args: &[Arg],
    ) -> Result<(RunReport, Vec<ViolationRecord>), SystemError> {
        let scope = tenants.allocator_mut(tenant)?;
        let driver = &mut self.driver;
        let prepared = match t.time("driver.prepare", || {
            driver.prepare_launch_scoped(kernel, grid, block, args, Some(scope))
        }) {
            Ok(p) => p,
            Err(e) => {
                tenants.record_rejection(tenant)?;
                if let Some(f) = self.flight.as_mut() {
                    f.note(FlightEvent::TenantReject { tenant: tenant.0 });
                }
                return Err(e.into());
            }
        };
        t.time("driver.tenant", || {
            tenants.record_launch(tenant, prepared.launch.kernel_id)
        })?;
        self.attach_shield(t, prepared.shield, &prepared.region_ids);
        if let Some(f) = self.flight.as_mut() {
            t.time("telemetry.record", || {
                f.note(FlightEvent::TenantAdmit {
                    tenant: tenant.0,
                    kernel_id: prepared.launch.kernel_id,
                })
            });
        }
        self.record_prepared(t, &prepared);
        let logged_before = self.violations().len();
        let report = self.run(t, &prepared, Engine::Default)?;
        self.last_bat = prepared.bat;
        let violations = self.violations();
        let new_violations = t.time("driver.tenant", || {
            let new = violations[logged_before..].to_vec();
            for v in &new {
                if let Some(owner) = tenants.owner_of_kernel(v.kernel_id) {
                    tenants.note_violation(owner)?;
                }
            }
            tenants.stats_mut(tenant)?.cycles_consumed += report.cycles;
            tenants.complete_launch(tenant, &prepared.region_ids)?;
            Ok::<_, SystemError>(new)
        })?;
        if let Some(f) = self.flight.as_mut() {
            t.time("telemetry.record", || {
                f.advance_epoch(report.cycles);
                for &id in &prepared.region_ids {
                    f.note(FlightEvent::RegionFree { id });
                }
            });
        }
        Ok((report, new_violations))
    }
}

/// A [`Stack`] plus the recorder its spans go to.
pub struct Traced<'t> {
    /// The layers.
    pub stack: Stack,
    /// Where their spans go.
    pub tracer: &'t mut Tracer,
}

/// What must agree between the traced and the untraced path for one
/// launch: cycles, warp instructions, and completion.
pub fn report_key(r: &RunReport) -> (u64, u64, bool) {
    (r.cycles, r.instructions(), r.completed())
}
