/*
 * The fastpath's stepping body: the per-step arithmetic of
 * PowerSystemSimulator._advance_reference for stock component types
 * (the two stock efficiency curves among them), compiled.
 * repro/sim/fastpath.py builds this file with the system C compiler,
 * loads it through ctypes and drives it segment by segment, or hands
 * repro_wait a whole wait: idle hops, and the load a scheduler runs
 * between them.
 *
 * Float rules. Every operation is the one the reference loop performs,
 * in the same order, on IEEE doubles, so results are bit-identical:
 *   - built with -O2 -ffp-contract=off (no fused multiply-add) and never
 *     -ffast-math, so nothing is reassociated or contracted;
 *   - exp is the libm function math.exp calls, and an exp that overflows
 *     a finite argument is reported, as math.exp raises OverflowError;
 *   - every zero clamp is written !(x > 0.0), which picks the float
 *     max(0.0, x) returns, NaN and -0.0 included, and every min/max is
 *     the comparison chain the reference evaluates;
 *   - every divisor that can be zero is tested first, and a zero
 *     divisor is reported, as Python raises ZeroDivisionError.
 *
 * One call runs steps of the current segment until something needs the
 * Python side, and returns a code saying what:
 *   K_END      the segment is done (Python draws the next one);
 *   K_BROWN    the terminal voltage fell below stop_level;
 *   K_DUE      an observer sample is due: Python writes the state
 *              back, runs the engine's _notify and re-reads the monitor,
 *              the burden and the next due time;
 *   K_CHUNK    the lone uArch block's sample buffer is full;
 *   K_NEED     a step needs the harvest power of a harvester only Python
 *              can evaluate: Python calls its power_at at `arg`, stores
 *              the value in x_power, sets `have` and re-enters, and the
 *              step starts over with the value in hand;
 *   K_ZERODIV, K_OVERFLOW, K_NEGATIVE_POWER, K_DOMAIN   the errors the
 *              reference loop would raise (ZeroDivisionError,
 *              OverflowError, the ValueError of a negative harvest power
 *              at `arg`, and math.sin's ValueError on an infinite
 *              argument).
 * After K_DUE and K_CHUNK the step is finished on the next call
 * (`pending`); `begin` starts a new segment.
 *
 * repro_wait runs a wait: hops, and optionally a load, drawn and
 * stopped by one rule (the w_ fields), each hop or load segment one
 * segment of the body above. A hop is min(w_hop, max(w_floor,
 * w_until - time)), without the max when there is no floor. After each
 * hop the wait stops on the first of, in order:
 *   K_STALL    the terminal voltage rose by at most 1e-9 V for more
 *              than w_stall hops in a row (w_stall < 0: never);
 *   K_RISE     the terminal voltage is not below w_rise (only without
 *              a load);
 *   K_UNTIL    the time reached w_until;
 *   K_OFF      the monitor is off (only with w_stop_off).
 * A wait with a load (w_n_load > 0 segments, their currents at
 * w_currents and durations at w_durations: a CurrentTrace's arrays)
 * runs the load's segments in place of a hop whenever the terminal
 * voltage is not below w_rise, and adds the load's time to
 * w_load_time. A load segment stops below the monitor's v_off, as
 * run_trace's segments do, and the wait ends there with K_BROWN; so
 * does a load that would start with the monitor off, at once
 * (run_trace's rule for a task).
 * After a whole load the wait stops on K_UNTIL or K_OFF as after a
 * hop. The first hop or load is drawn unconditionally. repro_wait
 * passes K_DUE, K_CHUNK, K_NEED and the errors on, and resumes the
 * segment on the next call. It returns K_HOP when a hop or load segment
 * is about to start and Python must act first: in an observed wait, at
 * every one, so Python refreshes the observers as at a segment's start;
 * and after one that took no step, so a wait that cannot end stays
 * interruptible. Every float and every comparison is the one
 * PowerSystemSimulator's reference wait makes.
 *
 * repro_advance_lanes is the fleet's entry: it runs one segment on
 * every lane of an array of states, each lane exactly as one
 * repro_advance call would.
 */

#include <math.h>
#include <stddef.h>

enum {
    K_END = 0, K_BROWN = 1, K_DUE = 2, K_CHUNK = 3, K_NEED = 4, K_HOP = 5,
    K_STALL = 6, K_RISE = 7, K_UNTIL = 8, K_OFF = 9,
    K_ZERODIV = -1, K_OVERFLOW = -2, K_NEGATIVE_POWER = -3, K_DOMAIN = -4
};

/* Field for field the ctypes mirror `_State` in fastpath.py, which
 * packs the plant and the call sections once per call; the segment and
 * step section starts at zero. */
struct kstate {
    /* the plant: booster, monitor, harvester and buffer fields, as the
     * components hold them (repro_advance derives the rest) */
    double v_out, min_vin, derating;
    double out_a, out_b, out_c, out_ref, out_floor, out_ceiling;
    double v_max_in;
    double in_a, in_b, in_c, in_ref, in_floor, in_ceiling;
    double v_off, v_high;
    double p_h_const;           /* ConstantPowerHarvester, Solar peak */
    double h_period, h_phase;   /* SolarHarvester */
    double leak, c_main, r_esr, c_red, r_red, c_dec;  /* TwoBranchSupercap */
    int out_kind, in_kind;      /* efficiency: 1 linear, 2 curved */
    /* the call: engine constants, harvest, observers, live state */
    const double *h_edges;      /* TraceHarvester edges and powers */
    const double *h_powers;
    double *volts;              /* the uArch block's due-step voltages */
    double min_dt, max_idle_dt, idle_dv, load_dv;
    double period, stop_level;
    double v_main, v_red, v_term;
    double time_abs, v_min, energy;
    int harvest_mode;   /* 0 none, 1 constant, 2 other, 3 trace, 4 solar */
    int stopping, observed, chunked, chunk, hp_last, enabled;
    /* a wait's rule (repro_wait) */
    const double *w_currents;   /* the load's segments */
    const double *w_durations;
    double w_hop, w_until, w_floor, w_rise;
    double w_load_time;         /* the caller's total, plus each load's time */
    int w_stall, w_has_floor, w_has_rise, w_stop_off, w_n_load;
    /* the segment and the step */
    double i_out, duration, burden, next_due;
    double start, elapsed, transient_window, dv_budget, total_out, p_out;
    double step_cap, t_last, v_new;
    double arg, x_power;        /* K_NEED */
    double w_before;            /* the terminal voltage at the hop's start */
    double w_load_start;        /* the time at the load's start */
    long long steps;            /* steps taken since the state was packed */
    int has_due, out_on, drawing, hp_idx, n_volts;
    int begin, pending, have;
    int w_flat, w_running, w_spun;  /* flat hops in a row; mid-segment;
                                     * the last segment took no step */
    int w_loading, w_seg;       /* running the load; its segment index */
};

size_t repro_kstate_size(void)
{
    return sizeof(struct kstate);
}

int repro_advance(struct kstate *s)
{
    const double min_dt = s->min_dt, max_idle_dt = s->max_idle_dt;
    const double v_out = s->v_out, min_vin = s->min_vin;
    const double derating = s->derating;
    const double out_a = s->out_a, out_b = s->out_b, out_c = s->out_c;
    const double out_ref = s->out_ref, out_floor = s->out_floor;
    const double out_ceiling = s->out_ceiling;
    const double v_max_in = s->v_max_in;
    const double in_a = s->in_a, in_b = s->in_b, in_c = s->in_c;
    const double in_ref = s->in_ref, in_floor = s->in_floor;
    const double in_ceiling = s->in_ceiling;
    const double v_off = s->v_off, v_high = s->v_high;
    const double p_h_const = s->p_h_const;
    const double h_period = s->h_period, h_phase = s->h_phase;
    const double leak = s->leak;
    const double c_main = s->c_main, r_esr = s->r_esr;
    const double c_red = s->c_red, r_red = s->r_red, c_dec = s->c_dec;
    const double stop_level = s->stop_level;
    const double *h_edges = s->h_edges, *h_powers = s->h_powers;
    double *volts = s->volts;
    const int out_kind = s->out_kind, in_kind = s->in_kind;
    const int harvest_mode = s->harvest_mode;
    const int stopping = s->stopping;
    const int observed = s->observed, chunked = s->chunked;
    const int hp_last = s->hp_last, chunk = s->chunk;
    const double period = s->period;
    /* the buffer's derived constants, set below */
    double g, total_c, stable, branch, tau = 0.0, tau_quarter;
    int has_red, zero_g;

    double v_main = s->v_main, v_red = s->v_red, v_term = s->v_term;
    double time_abs = s->time_abs, v_min = s->v_min, energy = s->energy;
    const double i_out = s->i_out, duration = s->duration;
    double start = s->start, elapsed = s->elapsed;
    double transient_window = s->transient_window;
    double dv_budget = s->dv_budget, total_out = s->total_out;
    double p_out = s->p_out, step_cap = s->step_cap;
    double next_due = s->next_due, t_last = s->t_last;
    double v_new = s->v_new, gap;
    int enabled = s->enabled, out_on = s->out_on, drawing = s->drawing;
    int has_due = s->has_due, hp_idx = s->hp_idx, n_volts = s->n_volts;
    int have = s->have;
    long long steps = s->steps;
    int code = K_END;

    /* TwoBranchSupercap's _has_redist, _conductance, total_capacitance
     * and max_stable_dt and the engine's _transient_tau, each expression
     * in its evaluation order. A zero divisor leaves inf or NaN here and
     * sets zero_g, and the ZeroDivisionError is reported where the
     * reference raises it. */
    has_red = c_red > 0.0 && isfinite(r_red);
    g = 1.0 / r_esr;
    if (has_red)
        g += 1.0 / r_red;
    total_c = c_main + c_dec;
    if (has_red)
        total_c += c_red;
    stable = r_esr * c_main;
    branch = r_red * c_red;
    if (has_red && branch < stable)
        stable = branch;
    stable = 0.25 * stable;
    if (!(c_dec <= 0.0))
        tau = c_dec / g;
    zero_g = r_esr == 0.0 || (has_red && r_red == 0.0) || g == 0.0;
    tau_quarter = tau / 4.0;

    if (s->begin) {
        /* one reference _advance call: the segment's constants */
        int loaded;
        s->begin = 0;
        start = time_abs;
        elapsed = 0.0;
        if (observed) {
            loaded = i_out > 0.0 || s->burden > 0.0;
            total_out = i_out + s->burden;
            step_cap = max_idle_dt;
            if (has_due && next_due > time_abs) {
                gap = next_due - time_abs;
                if (gap < step_cap)
                    step_cap = gap;
            }
        } else {
            loaded = i_out > 0.0;
            total_out = i_out;
            step_cap = max_idle_dt;
        }
        if (loaded && zero_g && !(c_dec <= 0.0)) {
            /* _transient_tau divides at a loaded segment's start */
            code = K_ZERODIV;
            goto out;
        }
        transient_window = loaded ? 6.0 * tau : 0.0;
        dv_budget = loaded ? s->load_dv : s->idle_dv;
        p_out = total_out * v_out;
        out_on = total_out > 0.0;
        drawing = enabled && out_on;
    }
    if (s->pending) {
        /* finish the step a due sample or a full chunk interrupted */
        if (s->pending == K_DUE) {
            total_out = i_out + s->burden;
            p_out = total_out * v_out;
            out_on = total_out > 0.0;
            drawing = enabled && out_on;
        }
        s->pending = 0;
        goto resume;
    }

    while (elapsed < duration - 1e-12) {
        const double v = v_term;    /* the terminal voltage */
        double v_in, eta, i_in, i_chg, p_h, v_clamp, eta_c, dv;
        double i_net, remaining, i_abs, dt, dt_floor, drain;
        double num, v_star, v_avg, i_main;

        /* output booster draw (OutputBooster.input_current) */
        if (drawing) {
            v_in = min_vin > v ? min_vin : v;
            if (out_kind == 1) {
                eta = out_a * v_in + out_b;
            } else {
                dv = v_in - out_ref;
                eta = out_a + out_b * dv - out_c * dv * dv;
            }
            if (!(eta > out_floor))
                eta = out_floor;
            if (!(eta < out_ceiling))
                eta = out_ceiling;
            if (p_out > 0.0 && derating > 0.0) {
                eta -= derating * p_out;
                if (!(eta > 0.30))
                    eta = 0.30;
            }
            if (eta == 0.0 || v_in == 0.0) {
                code = K_ZERODIV;
                goto out;
            }
            i_in = p_out / eta / v_in;
        } else {
            i_in = 0.0;
        }

        /* input booster charge (InputBooster.charge_current) */
        if (harvest_mode == 0) {
            i_chg = 0.0;
        } else {
            if (harvest_mode == 1) {
                p_h = p_h_const;
            } else if (harvest_mode == 3) {
                /* piece-pointer walk: time only moves forward */
                while (hp_idx < hp_last && time_abs >= h_edges[hp_idx + 1])
                    hp_idx++;
                p_h = h_powers[hp_idx];
            } else if (harvest_mode == 4) {
                /* SolarHarvester.power_at */
                double x = 2.0 * 3.141592653589793 * time_abs / h_period
                    + h_phase;
                if (isinf(x)) {
                    code = K_DOMAIN;
                    goto out;
                }
                x = sin(x);
                p_h = p_h_const * (x > 0.0 ? x : 0.0);
            } else {
                if (!have) {
                    s->arg = time_abs;
                    code = K_NEED;
                    goto out;
                }
                p_h = s->x_power;
            }
            if (p_h < 0.0) {
                /* InputBooster.charge_current rejects it */
                s->arg = p_h;
                code = K_NEGATIVE_POWER;
                goto out;
            }
            if (p_h == 0.0 || v >= v_max_in) {
                i_chg = 0.0;
            } else {
                v_clamp = 0.1 > v ? 0.1 : v;
                if (in_kind == 1) {
                    eta_c = in_a * v_clamp + in_b;
                } else {
                    dv = v_clamp - in_ref;
                    eta_c = in_a + in_b * dv - in_c * dv * dv;
                }
                if (!(eta_c > in_floor))
                    eta_c = in_floor;
                if (!(eta_c < in_ceiling))
                    eta_c = in_ceiling;
                if (v_clamp == 0.0) {
                    code = K_ZERODIV;
                    goto out;
                }
                i_chg = p_h * eta_c / v_clamp;
            }
        }
        have = 0;

        i_net = i_in - i_chg;
        remaining = duration - elapsed;

        /* step-size choice (_choose_dt) */
        i_abs = i_net >= 0.0 ? i_net : -i_net;
        if (i_abs > 1e-12)
            dt = dv_budget * total_c / i_abs;
        else
            dt = max_idle_dt;
        if (elapsed < transient_window && tau_quarter < dt)
            dt = tau_quarter;
        if (stable < dt)
            dt = stable;
        if (step_cap < dt)
            dt = step_cap;
        if (remaining < dt)
            dt = remaining;
        if (harvest_mode == 3) {
            /* land a step edge on the next harvest breakpoint */
            double next_edge = h_edges[hp_idx + 1];
            if (time_abs < next_edge) {
                gap = next_edge - time_abs;
                if (gap < dt)
                    dt = gap;
            }
        }
        dt_floor = min_dt < remaining ? min_dt : remaining;
        if (dt < dt_floor)
            dt = dt_floor;

        /* buffer step (TwoBranchSupercap.pulse) */
        if (zero_g) {
            /* pulse's conductance, its tau or its v_star */
            code = K_ZERODIV;
            goto out;
        }
        num = v_main / r_esr - i_net;
        if (has_red)
            num += v_red / r_red;
        v_star = num / g;
        if (c_dec > 0.0) {
            double ratio, alpha, diff;
            if (tau == 0.0) {
                code = K_ZERODIV;
                goto out;
            }
            ratio = dt / tau;
            alpha = exp(-ratio);
            if (isinf(alpha) && isfinite(ratio)) {
                code = K_OVERFLOW;
                goto out;
            }
            diff = v_term - v_star;
            if (ratio == 0.0) {
                code = K_ZERODIV;
                goto out;
            }
            v_avg = v_star + diff * (1.0 - alpha) / ratio;
            v_term = v_star + diff * alpha;
        } else {
            v_avg = v_star;
            v_term = v_star;
        }
        i_main = (v_main - v_avg) / r_esr;
        drain = i_main + (v_main > 0.0 ? leak : 0.0);
        if (c_main == 0.0) {
            code = K_ZERODIV;
            goto out;
        }
        v_main -= drain * dt / c_main;
        if (!(v_main > 0.0))
            v_main = 0.0;
        if (has_red) {
            if (c_red == 0.0) {
                code = K_ZERODIV;
                goto out;
            }
            v_red -= (v_red - v_avg) / r_red * dt / c_red;
            if (!(v_red > 0.0))
                v_red = 0.0;
        }
        if (!(v_term > 0.0))
            v_term = 0.0;
        v_new = v_term;

        steps++;
        elapsed += dt;
        time_abs = start + elapsed;
        energy += i_in * (v_new > v ? v_new : v) * dt;

        /* monitor hysteresis (VoltageMonitor.observe) */
        if (enabled) {
            if (v_new < v_off) {
                enabled = 0;
                drawing = 0;
            }
        } else if (v_new >= v_high) {
            enabled = 1;
            drawing = out_on;
        }

        if (v_new < v_min)
            v_min = v_new;
        if (observed && has_due && next_due <= time_abs + 1e-12) {
            if (!chunked) {
                s->pending = K_DUE;
                code = K_DUE;
                goto out;
            }
            /* buffer the sample and schedule the next, as on_sample
             * would; the block touches neither monitor nor burden */
            volts[n_volts++] = v_new;
            t_last = time_abs;
            next_due = time_abs + period;
            if (n_volts == chunk) {
                s->pending = K_CHUNK;
                code = K_CHUNK;
                goto out;
            }
        }
resume:
        if (observed) {
            /* _choose_dt's observer clamp, for the next step */
            step_cap = max_idle_dt;
            if (has_due && next_due > time_abs) {
                gap = next_due - time_abs;
                if (gap < step_cap)
                    step_cap = gap;
            }
        }
        if (stopping && v_new < stop_level) {
            code = K_BROWN;
            goto out;
        }
    }

out:
    s->v_main = v_main;
    s->v_red = v_red;
    s->v_term = v_term;
    s->time_abs = time_abs;
    s->v_min = v_min;
    s->energy = energy;
    s->start = start;
    s->elapsed = elapsed;
    s->transient_window = transient_window;
    s->dv_budget = dv_budget;
    s->total_out = total_out;
    s->p_out = p_out;
    s->step_cap = step_cap;
    s->next_due = next_due;
    s->t_last = t_last;
    s->v_new = v_new;
    s->enabled = enabled;
    s->out_on = out_on;
    s->drawing = drawing;
    s->hp_idx = hp_idx;
    s->n_volts = n_volts;
    s->have = have;
    s->steps = steps;
    return code;
}

int repro_wait(struct kstate *s)
{
    for (;;) {
        int code;
        if (!s->w_running) {
            if (s->w_n_load && !s->w_loading && !(s->v_term < s->w_rise)) {
                /* the load runs in place of a hop; with the monitor off
                 * it browns out at once, as run_trace's task does */
                s->w_load_start = s->time_abs;
                if (!s->enabled) {
                    s->w_load_time += s->time_abs - s->w_load_start;
                    return K_BROWN;
                }
                s->w_loading = 1;
                s->w_seg = 0;
            }
            if (s->w_loading) {
                s->i_out = s->w_currents[s->w_seg];
                s->duration = s->w_durations[s->w_seg];
                s->stop_level = s->v_off;
            } else {
                /* draw the hop as Python's min(hop, max(floor, left))
                 * does: max keeps the floor unless left > floor, min
                 * keeps the hop unless left < hop */
                double left = s->w_until - s->time_abs;
                if (s->w_has_floor && !(left > s->w_floor))
                    left = s->w_floor;
                s->duration = left < s->w_hop ? left : s->w_hop;
                s->i_out = 0.0;
                s->w_before = s->v_term;
            }
            s->stopping = s->w_loading;     /* a hop never stops */
            s->begin = 1;
            s->w_running = 1;
            if (s->observed || s->w_spun)
                return K_HOP;
        }
        code = repro_advance(s);
        if (code == K_BROWN)
            s->w_load_time += s->time_abs - s->w_load_start;
        if (code != K_END)
            return code;
        s->w_running = 0;
        s->w_spun = !(s->elapsed > 0.0);
        if (s->w_loading) {
            if (++s->w_seg < s->w_n_load)
                continue;
            s->w_loading = 0;
            s->w_load_time += s->time_abs - s->w_load_start;
        } else {
            if (s->w_stall >= 0) {
                if (s->v_term <= s->w_before + 1e-9) {
                    if (++s->w_flat > s->w_stall)
                        return K_STALL;
                } else {
                    s->w_flat = 0;
                }
            }
            if (s->w_has_rise && !s->w_n_load && !(s->v_term < s->w_rise))
                return K_RISE;
        }
        if (s->time_abs >= s->w_until)
            return K_UNTIL;
        if (s->w_stop_off && !s->enabled)
            return K_OFF;
    }
}

/* Run one segment on each of the n lanes whose run flag is set. The
 * lanes are unobserved plants whose harvester the kernel evaluates
 * itself, so no lane asks for Python. A lane that browns out has its
 * run flag cleared and its time stored in brown[]. Returns K_END, or
 * the first error, with its lane in *failed. */
int repro_advance_lanes(struct kstate *lanes, long n, unsigned char *run,
                        double i_out, double duration, double *brown,
                        long *failed)
{
    long i;
    for (i = 0; i < n; i++) {
        struct kstate *s = lanes + i;
        int code;
        if (!run[i])
            continue;
        s->i_out = i_out;
        s->duration = duration;
        s->begin = 1;
        code = repro_advance(s);
        if (code == K_BROWN) {
            run[i] = 0;
            brown[i] = s->time_abs;
        } else if (code != K_END) {
            *failed = i;
            return code;
        }
    }
    return K_END;
}
