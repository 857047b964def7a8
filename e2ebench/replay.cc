/**
 * @file
 * The traced run (--trace 1): a single-threaded layer replay in which
 * the benchmark plays the worker and times every call it makes into a
 * layer, followed by an untraced reference run of the same work.
 *
 * The replay acquires splits from the workload's control plane (a
 * Master, or the FleetScheduler with the benchmark as its only active
 * worker), reads them with FileReader over a timing decorator around
 * TectonicSource, slices, dedups and transforms the batches, claims
 * each in a DeliveryLedger, notes the delivery at a Master (for the
 * fleet, a journaled per-tenant Master), and completes the split. The
 * program's own tracing stays off; the spans are recorded here and
 * written as trace_<workload>.json.
 *
 * A layer's self time is its span's duration minus its child spans'.
 * The reference run (a synchronous single-thread InProcessSession, or
 * the synchronous fleet itself) gives dpp.sync_session_ns_per_row,
 * and dpp.unattributed_frac = 1 - (sum of layer ns/row) / that.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string_view>

#include "bench.h"
#include "transforms/dedup.h"

namespace dsi::e2e {

namespace {

/** Share of --seconds the replay runs for; the reference repeats the
 * same work untraced, in slices alternating with the replay's so that
 * both see the same host. */
constexpr double kReplayShare = 0.4;

/** Bench-side span recorder (single-threaded). */
class Recorder
{
  public:
    /** Self time of every span with one name. */
    struct Layer
    {
        double self_s = 0.0;
        PercentileSampler self_samples; ///< seconds, one per call
    };

    /** Run `f` inside a span named `name` (a string literal). */
    template <typename F>
    auto span(const char *name, F &&f, uint64_t a0 = 0) -> decltype(f())
    {
        Scope scope(*this, name, a0);
        return f();
    }

    const Layer &layer(std::string_view name) const
    {
        static const Layer empty;
        auto it = layers_.find(name);
        return it == layers_.end() ? empty : it->second;
    }

    /** Summed self time of the spans whose names start with `prefix`. */
    double selfSeconds(std::string_view prefix) const
    {
        double s = 0.0;
        for (const auto &[name, l] : layers_)
            if (name.starts_with(prefix))
                s += l.self_s;
        return s;
    }

    /** The recorded spans in start order (what the exporter needs). */
    std::vector<trace::TraceEvent> events() const
    {
        auto sorted = events_;
        std::stable_sort(sorted.begin(), sorted.end(),
                         [](const auto &a, const auto &b) {
                             return a.ts < b.ts;
                         });
        return sorted;
    }

  private:
    struct Open
    {
        trace::SpanId id = trace::kNoSpan;
        trace::SpanId parent = trace::kNoSpan;
        const char *name = "";
        uint64_t a0 = 0;
        double t0 = 0.0;
        double child_s = 0.0;
    };

    class Scope
    {
      public:
        Scope(Recorder &rec, const char *name, uint64_t a0) : rec_(rec)
        {
            Open open;
            open.id = rec_.next_id_++;
            open.parent =
                rec_.stack_.empty() ? trace::kNoSpan : rec_.stack_.back().id;
            open.name = name;
            open.a0 = a0;
            open.t0 = trace::nowSeconds();
            rec_.stack_.push_back(open);
        }
        ~Scope()
        {
            double t1 = trace::nowSeconds();
            Open open = rec_.stack_.back();
            rec_.stack_.pop_back();
            double dur = t1 - open.t0;
            if (!rec_.stack_.empty())
                rec_.stack_.back().child_s += dur;
            Layer &l = rec_.layers_[open.name];
            l.self_s += dur - open.child_s;
            l.self_samples.add(dur - open.child_s);
            trace::TraceEvent ev;
            ev.type = trace::TraceEvent::Type::Complete;
            ev.id = open.id;
            ev.parent = open.parent;
            ev.name = open.name;
            ev.ts = open.t0;
            ev.end_ts = t1;
            ev.a0 = open.a0;
            rec_.events_.push_back(ev);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Recorder &rec_;
    };

    std::vector<Open> stack_;
    std::vector<trace::TraceEvent> events_;
    std::map<std::string_view, Layer> layers_; ///< keyed by literals
    trace::SpanId next_id_ = 1;
};

/** Work the replay did, for the count and ratio metrics. */
struct ReplayStats
{
    uint64_t rows = 0;
    uint64_t reads = 0;
    Bytes read_bytes = 0;
    Bytes decoded_bytes = 0; ///< payload of the decoded stripes
    uint64_t applied_rows = 0; ///< rows the transform graph ran on
    uint64_t cache_hits = 0;   ///< SSD-cache block hits (fleet only)
    uint64_t cache_lookups = 0;
    double hedges = 0.0;       ///< hedge backups issued (fleet only)
    dwrf::ReadStats read;
    transforms::TransformStats transform;
};

/** Times every storage call the DWRF reader makes. */
class TimedSource : public dwrf::RandomAccessSource
{
  public:
    TimedSource(std::unique_ptr<dwrf::RandomAccessSource> inner,
                Recorder &rec, ReplayStats &stats)
        : inner_(std::move(inner)), rec_(rec), stats_(stats)
    {
    }

    Bytes size() const override
    {
        return rec_.span("storage.size", [&] { return inner_->size(); });
    }
    void read(Bytes offset, Bytes len, dwrf::Buffer &out) const override
    {
        rec_.span("storage.read",
                  [&] { inner_->read(offset, len, out); }, len);
    }
    dwrf::IoStatus readChecked(Bytes offset, Bytes len,
                               dwrf::Buffer &out) const override
    {
        ++stats_.reads;
        stats_.read_bytes += len;
        return rec_.span(
            "storage.read",
            [&] { return inner_->readChecked(offset, len, out); }, len);
    }
    void reportCorruption(Bytes offset, Bytes len) const override
    {
        inner_->reportCorruption(offset, len);
    }
    const dwrf::IoTrace &trace() const override { return inner_->trace(); }
    void clearTrace() override { inner_->clearTrace(); }

  private:
    std::unique_ptr<dwrf::RandomAccessSource> inner_;
    Recorder &rec_;
    ReplayStats &stats_;
};

/** The benchmark playing one DPP worker, one call at a time. */
class ReplayWorker
{
  public:
    ReplayWorker(const Workload &w, const Corpus &corpus, Recorder &rec,
                 ReplayStats &stats)
        : w_(w), corpus_(corpus), rec_(rec), stats_(stats)
    {
    }

    /** Compile a control plane's transform program (Worker::programFor
     * + the CompiledGraph a worker thread builds). */
    std::unique_ptr<transforms::CompiledGraph>
    compile(const dwrf::Buffer &program)
    {
        return rec_.span("transforms.compile", [&] {
            auto graph = transforms::TransformGraph::deserialize(program);
            return graph ? std::make_unique<transforms::CompiledGraph>(*graph)
                         : nullptr;
        });
    }

    /**
     * Read, slice, transform, claim and note every batch of a granted
     * split; `notes` is the Master whose delivery hooks a session's
     * drain (or the fleet's) calls. False when a stripe is unreadable.
     */
    bool processSplit(const dpp::SplitGrant &grant,
                      const dpp::SessionSpec &spec,
                      const transforms::CompiledGraph &graph,
                      dpp::DeliveryLedger &ledger, dpp::Master &notes,
                      Tally &tally)
    {
        const dpp::Split &split = *grant.split;
        auto source = rec_.span("storage.open", [&] {
            return corpus_.mc.cluster->open(split.file);
        });
        TimedSource timed(std::move(source), rec_, stats_);
        dwrf::ReadOptions ro = spec.read;
        ro.projection = spec.projection;
        ro.verify_checksums = w_.worker.verify_checksums;
        auto reader = rec_.span("dwrf.open", [&] {
            return std::make_unique<dwrf::FileReader>(timed, ro);
        });
        if (!reader->valid())
            return false;
        reader->setDeadline(grant.deadline);
        const bool dedup =
            w_.worker.dedup_enabled && transforms::rowLocal(graph);
        dwrf::RowBatch stripe;
        bool ok = true;
        for (uint32_t s = split.resume_stripe; ok && s < split.stripe_count;
             ++s) {
            uint32_t idx = split.first_stripe + s;
            auto status = rec_.span(
                "dwrf.read_stripe",
                [&] { return reader->readStripe(idx, stripe); }, idx);
            if (status != dwrf::ReadStatus::Ok) {
                ok = false;
                break;
            }
            stats_.decoded_bytes += stripe.payloadBytes();
            RowId first_row = reader->footer().stripes[idx].first_row;
            for (uint32_t start = 0; start < stripe.rows;
                 start += spec.batch_size) {
                dwrf::RowBatch batch = rec_.span("dpp.slice", [&] {
                    return dwrf::sliceBatch(stripe, start, spec.batch_size);
                });
                transform(batch, graph, dedup);
                RowId key = first_row + start;
                rec_.span("dpp.ledger_claim",
                          [&] { return ledger.claim(split.id, key); });
                bool last = start + spec.batch_size >= stripe.rows;
                rec_.span("dpp.note_delivery", [&] {
                    if (last)
                        notes.noteStripeDelivered(split.id, s);
                    notes.noteDelivery();
                });
                stats_.rows += batch.rows;
                tally.add(split.id, key, batch);
            }
        }
        stats_.read.merge(reader->stats());
        return ok;
    }

  private:
    /** Worker::transformStripe's per-batch path, span by span. */
    void transform(dwrf::RowBatch &batch,
                   const transforms::CompiledGraph &graph, bool dedup)
    {
        auto apply = [&](dwrf::RowBatch &b) {
            stats_.applied_rows += b.rows;
            stats_.transform.merge(rec_.span(
                "transforms.apply", [&] { return graph.apply(b); }));
        };
        if (!dedup) {
            apply(batch);
            return;
        }
        auto plan = rec_.span("transforms.dedup_plan", [&] {
            return transforms::planBatchDedup(batch);
        });
        if (!plan.collapsed()) {
            apply(batch);
            return;
        }
        std::vector<float> labels = std::move(batch.labels);
        dwrf::RowBatch unique = rec_.span("transforms.dedup_gather", [&] {
            return transforms::gatherRows(batch, plan.unique_rows);
        });
        apply(unique);
        batch = rec_.span("transforms.dedup_expand", [&] {
            return labels.empty()
                       ? transforms::gatherRows(unique, plan.inverse)
                       : transforms::expandBatch(unique, plan, labels);
        });
    }

    const Workload &w_;
    const Corpus &corpus_;
    Recorder &rec_;
    ReplayStats &stats_;
};

/** The untraced reference run: its cost, net of the benchmark's
 * hashing, and its rows over its own clock (the sum of its slices). */
struct Reference
{
    uint64_t rows = 0;
    double seconds = 0.0;
    double hash_s = 0.0;
    std::vector<std::pair<double, uint64_t>> deliveries; ///< (t, rows)

    /** Run `f` as one slice of the reference. */
    template <typename F>
    void slice(F &&f)
    {
        slice_start_ = nowSeconds();
        f();
        seconds += nowSeconds() - slice_start_;
    }

    /** One delivered batch: checked into `tally`, timed apart. */
    void deliver(Tally &tally, const dpp::TensorBatch &b)
    {
        double t0 = nowSeconds();
        tally.add(b.split_id, b.first_row, b.data);
        rows += b.data.rows;
        deliveries.emplace_back(seconds + t0 - slice_start_, b.data.rows);
        hash_s += nowSeconds() - t0;
    }

    double nsPerRow() const
    {
        return rows ? (seconds - hash_s) * 1e9 / static_cast<double>(rows)
                    : 0.0;
    }

    /** Rows/s in the last tenth divided by rows/s in the first. */
    double retention() const
    {
        double tenth = seconds / 10.0;
        uint64_t first = 0, last = 0;
        for (const auto &[t, n] : deliveries) {
            if (t <= tenth)
                first += n;
            if (t >= seconds - tenth)
                last += n;
        }
        return first > 0 ? static_cast<double>(last) /
                               static_cast<double>(first)
                         : 0.0;
    }

  private:
    double slice_start_ = 0.0;
};

struct Outcome
{
    Recorder rec;
    ReplayStats stats;
    Reference ref;
    double replay_s = 0.0;
    Metrics masters; ///< counters of the Masters whose hooks were noted
};

void
replaySessions(const Workload &w, const RunOptions &opts, RunResult &r,
               Outcome &o)
{
    const auto parts = allPartitions(w);
    Corpus corpus = buildCorpus(w, opts.seed);
    checkPinnedInputs(w, opts, corpus);
    const dpp::SessionSpec spec = makeSpec(w, corpus, parts);
    ReplayWorker worker(w, corpus, o.rec, o.stats);

    dpp::SessionOptions so;
    so.workers = 1;
    so.worker.dedup_enabled = w.worker.dedup_enabled;
    std::vector<Tally> epochs, refs;
    do {
        double t0 = nowSeconds();
        Tally tally;
        o.rec.span("replay.epoch", [&] {
            auto master = o.rec.span("dpp.master_init", [&] {
                return std::make_unique<dpp::Master>(*corpus.mc.warehouse,
                                                     spec);
            });
            WorkerId wid = o.rec.span(
                "dpp.master_init", [&] { return master->registerWorker(); });
            auto graph = worker.compile(master->transformProgram());
            dpp::DeliveryLedger ledger;
            for (bool more = true; more;) {
                more = o.rec.span("replay.split", [&] {
                    auto grant = o.rec.span("dpp.acquire_split", [&] {
                        return master->acquireSplit(wid, {});
                    });
                    if (grant.status != dpp::GrantStatus::Granted)
                        return false;
                    r.check(graph && worker.processSplit(grant, spec, *graph,
                                                         ledger, *master,
                                                         tally),
                            "replay could not process split " +
                                std::to_string(grant.split->id));
                    o.rec.span("dpp.complete_split", [&] {
                        master->completeSplit(wid, grant.split->id);
                    });
                    return true;
                });
            }
            o.masters.merge(master->metrics());
        });
        o.replay_s += nowSeconds() - t0;
        epochs.push_back(std::move(tally));

        // The same epoch, untraced, through the synchronous session.
        Tally ref;
        o.ref.slice([&] {
            dpp::InProcessSession session(*corpus.mc.warehouse, spec, so);
            session.run([&](ClientId, const dpp::TensorBatch &b) {
                o.ref.deliver(ref, b);
            });
        });
        refs.push_back(std::move(ref));
    } while (o.replay_s < kReplayShare * opts.seconds);

    r.check(refs[0].rows == corpus.rows && refs[0].duplicates == 0,
            "the reference session did not deliver the corpus once");
    for (size_t e = 0; e < epochs.size(); ++e) {
        r.check(epochs[e].matches(refs[0]),
                "replay epoch " + std::to_string(e) +
                    " differs from the reference session");
        r.check(refs[e].matches(refs[0]),
                "reference epoch " + std::to_string(e) + " differs");
    }
}

void
replayFleet(const Workload &w, const RunOptions &opts, RunResult &r,
            Outcome &o)
{
    // The replay's fleet, with the benchmark as its only active worker.
    Corpus corpus = buildCorpus(w, opts.seed);
    checkPinnedInputs(w, opts, corpus);
    storage::TectonicCluster &cluster = *corpus.mc.cluster;
    sched::FleetScheduler fleet(*corpus.mc.warehouse,
                                fleetOptions(cluster, 1, "e2e/journal"));
    TenantLoop loop(w, corpus, fleet);
    ReplayWorker worker(w, corpus, o.rec, o.stats);
    WorkerId wid = fleet.registerWorker();

    // The reference: the same tenants through the fleet's own workers,
    // on a corpus of its own (the fleet ages with the work it has done).
    // It admits a tenant only once the replay has, and is ticked after
    // every replayed split until it has delivered as many rows.
    Corpus ref_corpus = buildCorpus(w, opts.seed);
    sched::FleetScheduler ref_fleet(
        *ref_corpus.mc.warehouse,
        fleetOptions(*ref_corpus.mc.cluster, w.fleet_workers,
                     "e2e/journal"));
    TenantLoop ref_loop(w, ref_corpus, ref_fleet, 0);
    auto ref_sink = [&](TenantId t, const dpp::TensorBatch &b) {
        if (TenantRun *run = ref_loop.active(t))
            o.ref.deliver(run->tally, b);
    };
    auto catchUp = [&](uint64_t rows) {
        ref_loop.limitTo(loop.admitted());
        o.ref.slice([&] {
            while (o.ref.rows < rows && ref_loop.step())
                ref_fleet.tick(ref_sink);
        });
    };

    /** What the fleet's drain does per tenant, played bench-side. */
    struct Shadow
    {
        std::unique_ptr<dpp::Master> master;
        dpp::DeliveryLedger ledger;
        std::unique_ptr<transforms::CompiledGraph> graph;
    };
    std::map<TenantId, Shadow> shadows;
    uint64_t hits0 = cluster.cacheHits(), misses0 = cluster.cacheMisses();
    double hedges0 = cluster.metrics().counter("tectonic.hedges_issued");

    for (;;) {
        double t0 = nowSeconds();
        if (o.replay_s >= kReplayShare * opts.seconds)
            loop.limitTo(loop.admitted());
        if (!o.rec.span("sched.admit", [&] { return loop.step(); }))
            break;
        bool granted = o.rec.span("replay.split", [&] {
            auto grant = o.rec.span("dpp.acquire_split", [&] {
                return fleet.acquireSplit(wid, {});
            });
            if (grant.status != dpp::GrantStatus::Granted)
                return false;
            TenantId t = grant.tenant;
            const dpp::SessionSpec &spec = fleet.tenantSpec(t);
            Shadow &sh = shadows[t];
            if (!sh.master) {
                sh.master = std::make_unique<dpp::Master>(
                    *corpus.mc.warehouse, spec);
                sh.master->setLedger(&sh.ledger);
                dpp::CheckpointPolicy policy;
                policy.every_n_deliveries = 1;
                sh.master->enableJournal(
                    cluster, "e2e/replay.t" + std::to_string(t), policy);
                sh.graph = worker.compile(fleet.tenantProgram(t));
            }
            TenantRun *run = loop.active(t);
            r.check(run != nullptr && sh.graph &&
                        worker.processSplit(grant, spec, *sh.graph,
                                            sh.ledger, *sh.master,
                                            run->tally),
                    "replay could not process a split of tenant " +
                        std::to_string(t));
            o.rec.span("dpp.complete_split", [&] {
                fleet.completeSplit(wid, t, grant.split->id);
            });
            return true;
        });
        o.replay_s += nowSeconds() - t0;
        r.check(granted, "the fleet granted nothing to its only worker");
        if (!granted)
            break;
        catchUp(o.stats.rows);
    }
    catchUp(UINT64_MAX);

    o.stats.cache_hits = cluster.cacheHits() - hits0;
    o.stats.cache_lookups =
        o.stats.cache_hits + cluster.cacheMisses() - misses0;
    o.stats.hedges =
        cluster.metrics().counter("tectonic.hedges_issued") - hedges0;
    for (const auto &[t, sh] : shadows)
        o.masters.merge(sh.master->metrics());
    r.check(ref_loop.admitted() == loop.admitted(),
            "the reference fleet served other tenants than the replay");
    checkTenants(r, w, corpus, loop);
    checkTenants(r, w, ref_corpus, ref_loop);
}

void
addLayerMetrics(RunResult &r, const Outcome &o)
{
    const Recorder &rec = o.rec;
    const ReplayStats &st = o.stats;
    const double rows = std::max<double>(1.0, static_cast<double>(st.rows));
    auto perRow = [&](double seconds) { return seconds * 1e9 / rows; };
    auto pct = [&](const char *name, double p, double scale) {
        return rec.layer(name).self_samples.percentile(p) * scale;
    };
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };

    r.add("storage.read_ns_per_row", "ns/row",
          perRow(rec.selfSeconds("storage.")));
    r.add("storage.read_us_p50", "us", pct("storage.read", 50, 1e6));
    r.add("storage.read_us_p99", "us", pct("storage.read", 99, 1e6));
    r.add("storage.reads_per_krow", "count",
          1e3 * static_cast<double>(st.reads) / rows);
    r.add("storage.bytes_per_row", "B/row",
          static_cast<double>(st.read_bytes) / rows);
    r.add("storage.cache_hit_ratio", "ratio",
          ratio(static_cast<double>(st.cache_hits),
                static_cast<double>(st.cache_lookups)));
    r.add("storage.hedges_per_kread", "count",
          1e3 * ratio(st.hedges, static_cast<double>(st.reads)));

    double dwrf_s = rec.selfSeconds("dwrf.");
    r.add("dwrf.open_ns_per_row", "ns/row",
          perRow(rec.layer("dwrf.open").self_s));
    r.add("dwrf.stripe_ns_per_row", "ns/row",
          perRow(rec.layer("dwrf.read_stripe").self_s));
    r.add("dwrf.stripe_us_p50", "us", pct("dwrf.read_stripe", 50, 1e6));
    r.add("dwrf.stripe_us_p90", "us", pct("dwrf.read_stripe", 90, 1e6));
    r.add("dwrf.decoded_mb_per_s", "MB/s",
          ratio(static_cast<double>(st.decoded_bytes) / 1e6, dwrf_s));
    r.add("dwrf.over_read_ratio", "ratio",
          ratio(static_cast<double>(st.read.bytes_read),
                static_cast<double>(st.read.bytes_needed)));
    r.add("dwrf.dict_ref_ratio", "ratio",
          ratio(static_cast<double>(st.read.dict_list_refs),
                static_cast<double>(st.read.dict_list_refs +
                                    st.read.dict_lists_inline)));

    r.add("transforms.stage_ns_per_row", "ns/row",
          perRow(rec.selfSeconds("transforms.")));
    r.add("transforms.apply_ns_per_row", "ns/row",
          perRow(rec.layer("transforms.apply").self_s));
    r.add("transforms.values_per_row", "count",
          static_cast<double>(st.transform.values_produced) / rows);
    r.add("transforms.unique_row_frac", "ratio",
          static_cast<double>(st.applied_rows) / rows);

    double control_s = rec.selfSeconds("dpp.master_init") +
                       rec.selfSeconds("dpp.acquire_split") +
                       rec.selfSeconds("dpp.complete_split") +
                       rec.selfSeconds("dpp.note_delivery") +
                       rec.selfSeconds("sched.");
    r.add("dpp.slice_ns_per_row", "ns/row",
          perRow(rec.layer("dpp.slice").self_s));
    r.add("dpp.ledger_claim_ns_p50", "ns", pct("dpp.ledger_claim", 50, 1e9));
    r.add("dpp.ledger_claim_ns_p99", "ns", pct("dpp.ledger_claim", 99, 1e9));
    r.add("dpp.acquire_split_us_p50", "us",
          pct("dpp.acquire_split", 50, 1e6));
    r.add("dpp.acquire_split_us_p99", "us",
          pct("dpp.acquire_split", 99, 1e6));
    r.add("dpp.complete_split_us_p50", "us",
          pct("dpp.complete_split", 50, 1e6));
    r.add("dpp.note_delivery_us_p50", "us",
          pct("dpp.note_delivery", 50, 1e6));
    r.add("dpp.note_delivery_us_p99", "us",
          pct("dpp.note_delivery", 99, 1e6));
    r.add("dpp.journal_bytes_per_write", "B",
          ratio(o.masters.counter("master.checkpoint.bytes"),
                o.masters.counter("master.checkpoint.written")));
    r.add("dpp.control_ns_per_row", "ns/row", perRow(control_s));

    double layers_s = rec.selfSeconds("storage.") + dwrf_s +
                      rec.selfSeconds("transforms.") +
                      rec.selfSeconds("dpp.") + rec.selfSeconds("sched.");
    double ref_ns = o.ref.nsPerRow();
    r.add("dpp.replay_ns_per_row", "ns/row", perRow(o.replay_s));
    r.add("dpp.sync_session_ns_per_row", "ns/row", ref_ns);
    r.add("dpp.unattributed_frac", "ratio",
          ref_ns > 0 ? 1.0 - perRow(layers_s) / ref_ns : 0.0);
    r.add("dpp.rate_retention", "ratio", o.ref.retention());
}

} // namespace

RunResult
measureLayers(const Workload &w, const RunOptions &opts)
{
    RunResult r;
    Outcome o;
    if (w.kind == Kind::Fleet)
        replayFleet(w, opts, r, o);
    else
        replaySessions(w, opts, r, o);
    addLayerMetrics(r, o);
    std::string path = opts.out_dir + "/trace_" + w.name + ".json";
    r.check(trace::writeChromeTrace(path, o.rec.events()),
            "could not write " + path);
    std::printf("%s: replayed %llu rows in %.3f s, reference %llu rows in "
                "%.3f s, trace %s\n",
                w.name.c_str(), static_cast<unsigned long long>(o.stats.rows),
                o.replay_s, static_cast<unsigned long long>(o.ref.rows),
                o.ref.seconds, path.c_str());
    return r;
}

} // namespace dsi::e2e
