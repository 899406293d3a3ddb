/**
 * @file
 * Deterministic pseudo-random number generator for workloads.
 */

#ifndef HMTX_SIM_RNG_HH
#define HMTX_SIM_RNG_HH

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

namespace hmtx::sim
{

/**
 * SplitMix64-based PRNG. Small, fast, and fully deterministic across
 * platforms, so every simulation run is reproducible bit-for-bit.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
        : state_(seed)
    {}

    /** Next 64 uniformly distributed bits. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [0, n). @pre n > 0 */
    std::uint64_t range(std::uint64_t n) { return next() % n; }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p. */
    bool chance(double p) { return uniform() < p; }

  private:
    std::uint64_t state_;
};

/**
 * Zipfian rank sampler over [0, n): rank k is drawn with probability
 * P(k) = (k+1)^-theta / H(n, theta), the key-popularity law of
 * OLTP/KV serving traces (theta ~0.99 in YCSB; theta = 0 degenerates
 * to uniform). Implemented as an exact inverse-CDF table — O(n)
 * doubles at construction — rather than the YCSB-style rejection
 * trick, because the table is exact for *any* theta >= 0 (including
 * the theta > 1 high-skew cells the serving sweep measures, where the
 * closed-form approximation breaks down). Draws consume exactly one
 * Rng value, so seeded runs are reproducible.
 *
 * A draw is a guide-table (cut-point) lookup: n equal-width buckets
 * over [0, total) each remember the rank at their lower edge, and a
 * short walk in either direction corrects the guess. The result is
 * exactly the rank a bisection of the CDF returns, in O(1) expected
 * steps instead of O(log n).
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double theta)
        : theta_(theta)
    {
        assert(n > 0 && n <= UINT32_MAX && theta >= 0.0);
        cdf_.reserve(n);
        double cum = 0.0;
        for (std::uint64_t k = 0; k < n; ++k) {
            cum += weight(k);
            cdf_.push_back(cum);
        }
        total_ = cum;
        guideScale_ = static_cast<double>(n) / total_;
        // Bucket edges rise with j, so one merge-style sweep finds
        // every edge's rank (first k with cdf[k] > edge) in O(n).
        guide_.resize(n);
        std::size_t k = 0;
        for (std::uint64_t j = 0; j < n; ++j) {
            const double edge = static_cast<double>(j) / guideScale_;
            while (k < n - 1 && cdf_[k] <= edge)
                ++k;
            guide_[j] = static_cast<std::uint32_t>(k);
        }
    }

    /** Number of ranks. */
    std::uint64_t n() const { return cdf_.size(); }

    /** Sum of all weights: the CDF's last knot. */
    double total() const { return total_; }

    /** Draws a rank in [0, n) with Zipfian popularity. */
    std::uint64_t
    operator()(Rng& rng) const
    {
        return rank(rng.uniform() * total_);
    }

    /**
     * Rank of the scaled uniform @p u in [0, total()]: the first k
     * with cdf[k] > u, clamped to n - 1 (std::upper_bound's answer).
     */
    std::uint64_t
    rank(double u) const
    {
        const std::size_t last = cdf_.size() - 1;
        const auto bucket = static_cast<std::size_t>(u * guideScale_);
        std::size_t k = guide_[std::min(bucket, last)];
        // The guess is the rank at the bucket's lower edge, usually a
        // knot or two low; rounding in u * scale can also put it one
        // bucket high. Walk until cdf[k-1] <= u < cdf[k].
        while (k > 0 && cdf_[k - 1] > u)
            --k;
        while (k < last && cdf_[k] <= u)
            ++k;
        return k;
    }

    /** Closed-form P(rank k) — what the unit test pins draws to. */
    double
    probOfRank(std::uint64_t k) const
    {
        return weight(k) / total_;
    }

  private:
    double
    weight(std::uint64_t k) const
    {
        return std::pow(static_cast<double>(k + 1), -theta_);
    }

    double theta_;
    double total_ = 0.0;
    std::vector<double> cdf_;
    /** guide_[j]: rank at the lower edge of bucket j. */
    std::vector<std::uint32_t> guide_;
    /** Buckets per unit of cumulative weight (n / total). */
    double guideScale_ = 0.0;
};

/**
 * Bounded-Pareto sampler over [lo, hi] with shape alpha: the
 * heavy-tailed burst-length law (inverse-CDF method, one Rng draw
 * per sample). Used by the serving generator's ON/OFF arrival
 * process, where a heavy-tailed ON period is what makes open-loop
 * tail latency interesting.
 */
class BoundedParetoSampler
{
  public:
    BoundedParetoSampler(double lo, double hi, double alpha)
        : lo_(lo), alpha_(alpha), loA_(std::pow(lo, alpha)),
          ratioA_(1.0 - std::pow(lo / hi, alpha))
    {
        assert(lo > 0.0 && hi > lo && alpha > 0.0);
    }

    double
    operator()(Rng& rng) const
    {
        // Inverse of F(x) = (1 - lo^a x^-a) / (1 - (lo/hi)^a).
        const double u = rng.uniform();
        return std::pow(loA_ / (1.0 - u * ratioA_), 1.0 / alpha_);
    }

    /** Closed-form quantile (e.g. quantile(0.5) = median). */
    double
    quantile(double q) const
    {
        return std::pow(loA_ / (1.0 - q * ratioA_), 1.0 / alpha_);
    }

    double lo() const { return lo_; }

  private:
    double lo_;
    double alpha_;
    double loA_;
    double ratioA_;
};

} // namespace hmtx::sim

#endif // HMTX_SIM_RNG_HH
