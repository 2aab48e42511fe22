//! Failure injection: malformed or degenerate models must produce the right
//! `KalmanError`, never panics or silent garbage — and malformed wire
//! input must produce the right `WireError`, same rules.

use kalman::model::{events_of, generators, StreamEvent};
use kalman::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn assert_invalid(result: Result<Smoothed, KalmanError>, expect_substr: &str) {
    match result {
        Err(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains(expect_substr),
                "error {msg:?} does not mention {expect_substr:?}"
            );
        }
        Ok(_) => panic!("expected failure mentioning {expect_substr:?}"),
    }
}

#[test]
fn empty_model_is_rejected_by_every_algorithm() {
    let model = LinearModel::new();
    assert_invalid(
        odd_even_smooth(&model, OddEvenOptions::default()),
        "no steps",
    );
    assert_invalid(
        paige_saunders_smooth(&model, SmootherOptions::default()),
        "no steps",
    );
    assert_invalid(rts_smooth(&model), "no steps");
    assert_invalid(
        associative_smooth(&model, AssociativeOptions::default()),
        "no steps",
    );
    assert_invalid(
        normal_equations_smooth(&model, TridiagMethod::Cholesky, ExecPolicy::Seq),
        "no steps",
    );
}

#[test]
fn negative_variance_is_rejected() {
    let mut model = generators::paper_benchmark(&mut rng(1), 2, 5, false);
    model.steps[2].observation.as_mut().unwrap().noise = CovarianceSpec::Diagonal(vec![1.0, -0.5]);
    match odd_even_smooth(&model, OddEvenOptions::default()) {
        Err(KalmanError::NotPositiveDefinite { step }) => assert_eq!(step, 2),
        other => panic!("expected not-PD at step 2, got {other:?}"),
    }
    // Validation runs before the prior check, so the prior-requiring
    // smoothers report the same step.
    for (name, result) in [
        ("rts", rts_smooth(&model)),
        (
            "associative",
            associative_smooth(&model, AssociativeOptions::default()),
        ),
    ] {
        match result {
            Err(KalmanError::NotPositiveDefinite { step }) => assert_eq!(step, 2, "{name}"),
            other => panic!("{name}: expected not-PD at step 2, got {other:?}"),
        }
    }
}

#[test]
fn indefinite_dense_covariance_is_rejected() {
    let indefinite = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
    let nan_diag = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, f64::NAN]]);
    let nan_off = Matrix::from_rows(&[&[1.0, f64::NAN], &[f64::NAN, 1.0]]);
    let inf_diag = Matrix::from_rows(&[&[f64::INFINITY, 0.0], &[0.0, 1.0]]);
    for noise in [indefinite, nan_diag, nan_off, inf_diag] {
        let mut model = generators::paper_benchmark(&mut rng(2), 2, 5, false);
        model.steps[3].evolution.as_mut().unwrap().noise = CovarianceSpec::Dense(noise.clone());
        match paige_saunders_smooth(&model, SmootherOptions::default()) {
            Err(KalmanError::NotPositiveDefinite { step }) => assert_eq!(step, 3),
            other => panic!("expected not-PD at step 3 for {noise:?}, got {other:?}"),
        }
        for (name, result) in [
            ("rts", rts_smooth(&model)),
            (
                "associative",
                associative_smooth(&model, AssociativeOptions::default()),
            ),
        ] {
            match result {
                Err(KalmanError::NotPositiveDefinite { step }) => assert_eq!(step, 3, "{name}"),
                other => panic!("{name}: expected not-PD at step 3 for {noise:?}, got {other:?}"),
            }
        }
    }
}

/// A dense noise with a non-finite entry above the diagonal, or one that is
/// not symmetric, fails validation itself: every smoother and the stream's
/// ingest report the same typed error.  (Whitening reads only the lower
/// triangle, so without the check odd-even smoothed such a model while RTS
/// rejected it.)
#[test]
fn upper_non_finite_or_asymmetric_dense_noise_is_rejected_everywhere() {
    let cases = [
        (
            Matrix::from_rows(&[&[1.0, f64::NAN], &[0.0, 1.0]]),
            KalmanError::NotPositiveDefinite { step: 3 },
        ),
        (
            Matrix::from_rows(&[&[1.0, 0.5], &[0.25, 1.0]]),
            KalmanError::InvalidModel("covariance at step 3 is not symmetric".into()),
        ),
    ];
    let clean = generators::paper_benchmark(&mut rng(2), 2, 5, true);
    let opts = StreamOptions {
        lag: 2,
        flush_every: 1,
        covariances: true,
        policy: ExecPolicy::Seq,
        ..StreamOptions::default()
    };
    // Streams the clean model; with `bad` set, first offers a poisoned
    // evolution into step 3 and a poisoned observation of it, each of which
    // must fail with `want` and leave the stream untouched.
    let run = |bad: Option<(&Matrix, &KalmanError)>| {
        let p = clean.prior.as_ref().unwrap();
        let mut stream =
            StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), opts).unwrap();
        let mut out = Vec::new();
        for event in events_of(&clean) {
            let into_3 = matches!(event, StreamEvent::Evolve(_)) && stream.next_index() == 3;
            let poison = bad.filter(|_| into_3);
            if let (Some((noise, want)), StreamEvent::Evolve(evo)) = (poison, &event) {
                let evo = Evolution {
                    noise: CovarianceSpec::Dense(noise.clone()),
                    ..evo.clone()
                };
                let before = (stream.next_index(), stream.buffered_len());
                assert_eq!(stream.evolve(evo).err().as_ref(), Some(want));
                assert_eq!((stream.next_index(), stream.buffered_len()), before);
            }
            out.extend(stream.ingest(event).unwrap());
            if let Some((noise, want)) = poison {
                let obs = Observation {
                    g: Matrix::identity(2),
                    o: vec![0.0, 0.0],
                    noise: CovarianceSpec::Dense(noise.clone()),
                };
                let before = (stream.next_index(), stream.buffered_len());
                assert_eq!(stream.observe(obs).err().as_ref(), Some(want));
                assert_eq!((stream.next_index(), stream.buffered_len()), before);
            }
        }
        out.extend(stream.finish().unwrap().0);
        out
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let want_out = run(None);
    for (noise, want) in &cases {
        let mut model = clean.clone();
        model.steps[3].evolution.as_mut().unwrap().noise = CovarianceSpec::Dense(noise.clone());
        let want = Some(want.clone());
        assert_eq!(model.validate().err(), want, "validate, {noise:?}");
        let results = [
            (
                "odd-even",
                odd_even_smooth(&model, OddEvenOptions::default()),
            ),
            ("rts", rts_smooth(&model)),
            (
                "associative",
                associative_smooth(&model, AssociativeOptions::default()),
            ),
        ];
        for (name, result) in results {
            assert_eq!(result.err(), want, "{name}, {noise:?}");
        }
        let got = run(Some((noise, want.as_ref().unwrap())));
        assert_eq!(got.len(), want_out.len());
        for (a, b) in got.iter().zip(&want_out) {
            assert_eq!((a.index, bits(&a.mean)), (b.index, bits(&b.mean)));
            let (ca, cb) = (
                a.covariance.as_ref().unwrap(),
                b.covariance.as_ref().unwrap(),
            );
            assert_eq!(bits(ca.as_slice()), bits(cb.as_slice()));
        }
    }
}

#[test]
fn dimension_mismatches_are_reported_with_step_index() {
    let mut model = generators::paper_benchmark(&mut rng(3), 3, 4, false);
    model.steps[2].evolution.as_mut().unwrap().f = Matrix::identity(4);
    assert_invalid(odd_even_smooth(&model, OddEvenOptions::default()), "step 2");

    let mut model2 = generators::paper_benchmark(&mut rng(4), 3, 4, false);
    model2.steps[1].observation.as_mut().unwrap().o = vec![0.0; 9];
    assert_invalid(
        odd_even_smooth(&model2, OddEvenOptions::default()),
        "step 1",
    );
}

#[test]
fn disconnected_state_reports_rank_deficiency_in_all_qr_paths() {
    let mut model = generators::paper_benchmark(&mut rng(5), 2, 8, false);
    // State 5 appears in no equation with nonzero coefficients.
    model.steps[5].evolution.as_mut().unwrap().h = Some(Matrix::zeros(2, 2));
    model.steps[5].observation = None;
    model.steps[6].evolution.as_mut().unwrap().f = Matrix::zeros(2, 2);

    match odd_even_smooth(&model, OddEvenOptions::default()) {
        Err(KalmanError::RankDeficient { state }) => assert_eq!(state, 5),
        other => panic!("odd-even: expected rank deficiency, got {other:?}"),
    }
    match paige_saunders_smooth(&model, SmootherOptions::default()) {
        Err(KalmanError::RankDeficient { state }) => assert_eq!(state, 5),
        other => panic!("paige-saunders: expected rank deficiency, got {other:?}"),
    }
    match normal_equations_smooth(&model, TridiagMethod::CyclicReduction, ExecPolicy::Seq) {
        Err(KalmanError::RankDeficient { .. }) | Err(KalmanError::NotPositiveDefinite { .. }) => {}
        other => panic!("normal equations: expected failure, got {other:?}"),
    }
}

#[test]
fn prior_requirement_errors_are_specific() {
    let model = generators::paper_benchmark(&mut rng(6), 2, 5, false);
    assert!(matches!(
        rts_smooth(&model),
        Err(KalmanError::PriorRequired)
    ));
    assert!(matches!(
        associative_smooth(&model, AssociativeOptions::default()),
        Err(KalmanError::PriorRequired)
    ));
    // The QR smoothers do not require a prior.
    assert!(odd_even_smooth(&model, OddEvenOptions::default()).is_ok());
}

#[test]
fn nonuniform_models_rejected_only_where_unsupported() {
    let mut model = generators::dimension_change(&mut rng(7), 2, 6);
    model.set_prior(vec![0.0; 2], CovarianceSpec::Identity(2));
    assert!(matches!(
        rts_smooth(&model),
        Err(KalmanError::UnsupportedStructure(_))
    ));
    assert!(matches!(
        associative_smooth(&model, AssociativeOptions::default()),
        Err(KalmanError::UnsupportedStructure(_))
    ));
    assert!(odd_even_smooth(&model, OddEvenOptions::default()).is_ok());
    assert!(paige_saunders_smooth(&model, SmootherOptions::default()).is_ok());
}

#[test]
fn errors_are_displayable_and_chainable() {
    use std::error::Error;
    let e = KalmanError::RankDeficient { state: 4 };
    assert!(e.to_string().contains("state 4"));
    let dense_err = KalmanError::from(kalman::dense::DenseError::Singular { index: 1 });
    assert!(dense_err.source().is_some());
}

#[test]
fn zero_state_dimension_is_invalid() {
    let mut model = LinearModel::new();
    model.push_step(LinearStep::initial(0));
    assert_invalid(
        odd_even_smooth(&model, OddEvenOptions::default()),
        "zero state dimension",
    );
}

// ---- wire-level failure injection -------------------------------------
//
// The framed transport must turn every class of malformed input into its
// specific typed `WireError` — truncation, corruption, version skew, and
// hostile length prefixes — without panicking and without buffering
// unbounded garbage.  (The cross-process recovery consequences of these
// faults are pinned in `tests/cluster.rs`; this is the codec contract.)

mod wire_faults {
    use kalman::wire::{
        frame_bytes, FrameReader, Progress, WireError, DEFAULT_MAX_FRAME, HEADER_LEN, VERSION,
    };

    /// A healthy frame to mutate.
    fn good_frame() -> Vec<u8> {
        frame_bytes(7, b"finalized step payload")
    }

    /// Feeds bytes to a `FrameReader` and returns the first error.
    fn first_error(bytes: &[u8]) -> WireError {
        let mut reader = FrameReader::new(std::io::Cursor::new(bytes.to_vec()));
        loop {
            match reader.poll() {
                Ok(Progress::Frame { .. }) => continue,
                Ok(Progress::Closed) => panic!("stream ended without the expected error"),
                Ok(Progress::Pending) => unreachable!("Cursor never blocks"),
                Err(e) => return e,
            }
        }
    }

    #[test]
    fn truncated_frame_is_a_typed_error() {
        let frame = good_frame();
        // Cut inside the header and inside the payload: both must report
        // truncation (with how much was missing), not hang or panic.
        for cut in [1, HEADER_LEN - 1, HEADER_LEN + 3, frame.len() - 1] {
            match first_error(&frame[..cut]) {
                WireError::Truncated { needed, have } => {
                    assert!(have < needed, "cut at {cut}: have {have} < needed {needed}")
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupted_payload_is_a_crc_error() {
        let mut frame = good_frame();
        let byte = HEADER_LEN + 5;
        frame[byte] ^= 0x10;
        assert!(
            matches!(first_error(&frame), WireError::BadCrc { .. }),
            "payload corruption must fail the checksum"
        );
    }

    #[test]
    fn wrong_version_is_a_version_error() {
        let mut frame = good_frame();
        // Bytes 4..6 are the little-endian format version.
        frame[4] = 0xEE;
        frame[5] = 0x03;
        match first_error(&frame) {
            WireError::VersionMismatch { got, supported } => {
                assert_eq!(got, 0x03EE);
                assert_eq!(supported, VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        let mut frame = good_frame();
        // Bytes 8..12 are the little-endian payload length: claim 4 GiB.
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        match first_error(&frame) {
            WireError::Oversized { len, max } => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, DEFAULT_MAX_FRAME);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut frame = good_frame();
        frame[0] = b'X';
        assert!(matches!(first_error(&frame), WireError::BadMagic(_)));
    }
}

// ---- non-finite ingest ------------------------------------------------
//
// A NaN or infinity in an ingested event is rejected at the stream's one
// ingestion choke point (`observe`/`evolve`) with a typed error naming the
// step and the field, and the stream is left untouched.  Every serving
// layer must surface that error, and the stream must go on to emit output
// bitwise equal to a run that never saw the bad events.

/// Worker entry point for the cluster case below: the supervisor re-execs
/// this test binary with `cluster_worker_entry --exact` and the socket
/// environment variable set.  Without the variable this is a no-op pass.
#[test]
fn cluster_worker_entry() {
    kalman::cluster::worker_entry_from_env();
}

mod non_finite_ingest {
    use super::rng;
    use kalman::cluster::{ClusterConfig, StreamInit, StreamSpec, Supervisor};
    use kalman::dense::Matrix;
    use kalman::model::{events_of, generators, LinearModel, StreamEvent};
    use kalman::prelude::*;
    use kalman::serve::{ServeConfig, ShardedPool};

    /// The step every bad event targets.
    const BAD_STEP: usize = 5;

    /// A 40-step, n = 2 stream with a prior.
    fn model() -> LinearModel {
        generators::paper_benchmark(&mut rng(4242), 2, 39, true)
    }

    fn opts() -> StreamOptions {
        StreamOptions {
            lag: 4,
            flush_every: 2,
            covariances: true,
            policy: ExecPolicy::Seq,
            ..StreamOptions::default()
        }
    }

    fn stream_for(model: &LinearModel) -> StreamingSmoother {
        let p = model.prior.as_ref().unwrap();
        StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), opts()).unwrap()
    }

    fn poisoned(m: &Matrix) -> Matrix {
        let mut m = m.clone();
        m.as_mut_slice()[1] = f64::NAN;
        m
    }

    /// Bad evolutions (`F`, `H`, `c`) and the field each one must name.
    fn bad_evolutions() -> Vec<(StreamEvent, &'static str)> {
        let good = Evolution::random_walk(2);
        vec![
            (
                StreamEvent::Evolve(Evolution {
                    f: poisoned(&good.f),
                    ..good.clone()
                }),
                "F",
            ),
            (
                StreamEvent::Evolve(Evolution {
                    h: Some(poisoned(&Matrix::identity(2))),
                    ..good.clone()
                }),
                "H",
            ),
            (
                StreamEvent::Evolve(Evolution {
                    c: vec![f64::INFINITY, 0.0],
                    ..good
                }),
                "c",
            ),
        ]
    }

    /// Bad observations (`o`, `G`) and the field each one must name.
    fn bad_observations() -> Vec<(StreamEvent, &'static str)> {
        let good = Observation {
            g: Matrix::identity(2),
            o: vec![0.0, 0.0],
            noise: CovarianceSpec::Identity(2),
        };
        vec![
            (
                StreamEvent::Observe(Observation {
                    o: vec![f64::NAN, f64::NAN],
                    ..good.clone()
                }),
                "o",
            ),
            (
                StreamEvent::Observe(Observation {
                    g: poisoned(&good.g),
                    ..good
                }),
                "G",
            ),
        ]
    }

    /// The model's events, with every bad event spliced in at
    /// [`BAD_STEP`] when `poison` is set (bad evolutions just before the
    /// real evolution into that step, bad observations just after it).
    /// Returns the events and the fields the bad ones must be named by.
    fn schedule(poison: bool) -> (Vec<StreamEvent>, Vec<&'static str>) {
        let mut events = Vec::new();
        let mut fields = Vec::new();
        let mut state = 0;
        for event in events_of(&model()) {
            let is_evolve = matches!(event, StreamEvent::Evolve(_));
            if is_evolve {
                state += 1;
                if poison && state == BAD_STEP {
                    for (bad, field) in bad_evolutions() {
                        events.push(bad);
                        fields.push(field);
                    }
                }
            }
            events.push(event);
            if poison && is_evolve && state == BAD_STEP {
                for (bad, field) in bad_observations() {
                    events.push(bad);
                    fields.push(field);
                }
            }
        }
        (events, fields)
    }

    /// Checks the reported errors name [`BAD_STEP`] and each bad field, in
    /// order.
    fn assert_reported(layer: &str, errors: &[String], fields: &[&str]) {
        assert_eq!(errors.len(), fields.len(), "{layer}: errors {errors:?}");
        for (msg, field) in errors.iter().zip(fields) {
            assert!(
                msg.contains(&format!("step {BAD_STEP}: {field} has a non-finite entry")),
                "{layer}: error {msg:?} does not name step {BAD_STEP} and field {field}"
            );
        }
    }

    fn assert_bitwise(layer: &str, got: &[FinalizedStep], want: &[FinalizedStep]) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.len(), want.len(), "{layer}: finalized step count");
        for (a, b) in got.iter().zip(want) {
            assert_eq!(a.index, b.index, "{layer}: ordering");
            assert_eq!(bits(&a.mean), bits(&b.mean), "{layer}: mean {}", a.index);
            let (ca, cb) = (a.covariance.as_ref(), b.covariance.as_ref());
            assert_eq!(
                bits(ca.unwrap().as_slice()),
                bits(cb.unwrap().as_slice()),
                "{layer}: covariance {}",
                a.index
            );
        }
    }

    /// Runs the schedule through one layer (`run` returns the finalized
    /// steps and the reported error messages) clean and poisoned, and
    /// checks the poisoned run reports every bad event and otherwise
    /// matches the clean one bitwise.
    fn check_layer(layer: &str, run: impl Fn(&[StreamEvent]) -> (Vec<FinalizedStep>, Vec<String>)) {
        let (clean_events, _) = schedule(false);
        let (bad_events, fields) = schedule(true);
        let (clean, clean_errors) = run(&clean_events);
        assert!(clean_errors.is_empty(), "{layer}: {clean_errors:?}");
        assert_eq!(
            clean.len(),
            model().num_states(),
            "{layer}: every step finalized"
        );
        assert!(clean.iter().all(|f| f.mean.iter().all(|x| x.is_finite())));
        let (got, errors) = run(&bad_events);
        assert_reported(layer, &errors, &fields);
        assert_bitwise(layer, &got, &clean);
    }

    #[test]
    fn stream_rejects_non_finite_events_and_stays_untouched() {
        check_layer("stream", |events| {
            let mut stream = stream_for(&model());
            let (mut out, mut errors) = (Vec::new(), Vec::new());
            for event in events {
                let next = stream.next_index();
                let buffered = stream.buffered_len();
                match stream.ingest(event.clone()) {
                    Ok(steps) => out.extend(steps),
                    Err(e) => {
                        assert!(matches!(e, KalmanError::InvalidModel(_)), "{e:?}");
                        assert_eq!(stream.next_index(), next);
                        assert_eq!(stream.buffered_len(), buffered);
                        errors.push(e.to_string());
                    }
                }
            }
            out.extend(stream.finish().unwrap().0);
            (out, errors)
        });
    }

    /// A dense observation noise with a NaN entry fails the Cholesky check
    /// in `observe` with the typed error, and the stream's later output is
    /// bitwise equal to a run that never saw the event.
    #[test]
    fn stream_rejects_nan_dense_noise_and_stays_untouched() {
        let run = |poison: bool| {
            let mut stream = stream_for(&model());
            let (mut out, mut rejected) = (Vec::new(), 0);
            let mut state = 0;
            for event in events_of(&model()) {
                let is_evolve = matches!(event, StreamEvent::Evolve(_));
                state += usize::from(is_evolve);
                out.extend(stream.ingest(event).unwrap());
                if poison && is_evolve && state == BAD_STEP {
                    let next = stream.next_index();
                    let buffered = stream.buffered_len();
                    let bad = Observation {
                        g: Matrix::identity(2),
                        o: vec![0.0, 0.0],
                        noise: CovarianceSpec::Dense(Matrix::from_rows(&[
                            &[1.0, 0.0],
                            &[0.0, f64::NAN],
                        ])),
                    };
                    match stream.observe(bad) {
                        Err(KalmanError::NotPositiveDefinite { step }) => {
                            assert_eq!(step, BAD_STEP)
                        }
                        other => panic!("expected not-PD at step {BAD_STEP}, got {other:?}"),
                    }
                    assert_eq!(stream.next_index(), next);
                    assert_eq!(stream.buffered_len(), buffered);
                    rejected += 1;
                }
            }
            out.extend(stream.finish().unwrap().0);
            (out, rejected)
        };
        let (clean, _) = run(false);
        let (got, rejected) = run(true);
        assert_eq!(rejected, 1);
        assert!(got.iter().all(|f| f.mean.iter().all(|x| x.is_finite())));
        assert_bitwise("stream", &got, &clean);
    }

    #[test]
    fn smoother_pool_reports_non_finite_events() {
        check_layer("SmootherPool", |events| {
            let mut pool = SmootherPool::new(ExecPolicy::Seq);
            let id = pool.insert(stream_for(&model()));
            let (mut out, mut errors) = (Vec::new(), Vec::new());
            for event in events {
                if let Err(e) = pool.ingest(id, event.clone()) {
                    errors.push(e.to_string());
                }
                for (_, steps) in pool.poll() {
                    out.extend(steps.unwrap());
                }
            }
            out.extend(pool.finish(id).unwrap().0);
            (out, errors)
        });
    }

    #[test]
    fn sharded_pool_reports_non_finite_events() {
        check_layer("ShardedPool", |events| {
            let (mut pool, mut ingress) = ShardedPool::new(ServeConfig {
                shards: 2,
                queue_capacity: 8,
                policy: ExecPolicy::Seq,
            });
            pool.insert(7, stream_for(&model())).unwrap();
            let (mut out, mut errors) = (Vec::new(), Vec::new());
            for event in events {
                ingress.try_submit(7, event.clone()).unwrap();
                pool.drain();
                errors.extend(pool.last_errors().map(|(_, e)| e.to_string()));
                for (_, entry) in pool.outputs() {
                    out.extend(entry.result().unwrap().iter().cloned());
                }
            }
            out.extend(pool.finish(7).unwrap().0);
            (out, errors)
        });
    }

    #[test]
    fn cluster_reports_non_finite_events() {
        check_layer("cluster", |events| {
            let mut sup = Supervisor::new(ClusterConfig {
                workers: 1,
                ..ClusterConfig::default()
            })
            .unwrap();
            let p = model().prior.unwrap();
            let spec = StreamSpec {
                init: StreamInit::WithPrior {
                    mean: p.mean,
                    cov: p.cov,
                },
                opts: StreamOptions {
                    auto_flush: false,
                    ..opts()
                },
            };
            sup.insert(7, spec).unwrap();
            let mut out = Vec::new();
            for event in events {
                match event.clone() {
                    StreamEvent::Evolve(evo) => sup.evolve(7, evo).unwrap(),
                    StreamEvent::Observe(obs) => sup.observe(7, obs).unwrap(),
                }
                sup.poll().unwrap();
                for (_, steps) in sup.take_outputs() {
                    out.extend(steps);
                }
            }
            out.extend(sup.finish(7).unwrap().0);
            let errors = sup
                .take_stream_errors()
                .into_iter()
                .map(|(_, m)| m)
                .collect();
            sup.shutdown();
            (out, errors)
        });
    }
}
