#include "ml/mlp.hh"

#include <cmath>

#include "util/logging.hh"

namespace rlr::ml
{

Mlp::Mlp(MlpConfig config, uint64_t seed)
    : config_(config),
      w1_(config.hidden, config.inputs),
      b1_(config.hidden, 0.0f),
      w2_(config.outputs, config.hidden),
      b2_(config.outputs, 0.0f),
      v_w1_(config.hidden, config.inputs),
      v_b1_(config.hidden, 0.0f),
      v_w2_(config.outputs, config.hidden),
      v_b2_(config.outputs, 0.0f), hidden_(config.hidden),
      delta_h_(config.hidden)
{
    util::Rng rng(seed);
    w1_.initXavier(rng);
    w2_.initXavier(rng);
    w1_init_ = w1_;
}

std::vector<float>
Mlp::forward(std::span<const float> input) const
{
    std::vector<float> hidden(config_.hidden);
    w1_.matvec(input, hidden);
    for (size_t h = 0; h < hidden.size(); ++h)
        hidden[h] = std::tanh(hidden[h] + b1_[h]);

    std::vector<float> out(config_.outputs);
    w2_.matvec(hidden, out);
    for (size_t o = 0; o < out.size(); ++o)
        out[o] += b2_[o];
    return out;
}

float
Mlp::trainAction(std::span<const float> input, size_t action,
                 float target)
{
    util::ensure(action < config_.outputs, "Mlp: bad action");

    // Forward, keeping activations for backprop.
    std::vector<float> &hidden = hidden_;
    w1_.matvec(input, hidden);
    for (size_t h = 0; h < hidden.size(); ++h)
        hidden[h] = std::tanh(hidden[h] + b1_[h]);

    float q = b2_[action];
    const auto w2_row = w2_.row(action);
    for (size_t h = 0; h < hidden.size(); ++h)
        q += w2_row[h] * hidden[h];

    const float err = target - q;
    last_loss_ = 0.5 * static_cast<double>(err) * err;

    // Backprop: dL/dq = -err (loss 0.5*err^2 wrt prediction).
    // Output layer: grad_w2[action][h] = -err * hidden[h].
    // Hidden: delta_h = -err * w2[action][h] * (1 - hidden^2).
    const float lr = config_.learning_rate;
    const float mu = config_.momentum;

    std::vector<float> &delta_h = delta_h_;
    for (size_t h = 0; h < config_.hidden; ++h) {
        delta_h[h] = err * w2_row[h] *
                     (1.0f - hidden[h] * hidden[h]);
    }

    // Momentum-SGD on the output row and bias.
    {
        auto v_row = v_w2_.row(action);
        auto w_row = w2_.row(action);
        for (size_t h = 0; h < config_.hidden; ++h) {
            v_row[h] = mu * v_row[h] + lr * err * hidden[h];
            w_row[h] += v_row[h];
        }
        v_b2_[action] = mu * v_b2_[action] + lr * err;
        b2_[action] += v_b2_[action];
    }

    // Hidden layer.
    for (size_t h = 0; h < config_.hidden; ++h) {
        const float dh = delta_h[h];
        if (dh == 0.0f)
            continue;
        auto v_row = v_w1_.row(h);
        auto w_row = w1_.row(h);
        const float step = lr * dh;
        for (size_t i = 0; i < config_.inputs; ++i) {
            if (input[i] == 0.0f) {
                v_row[i] = mu * v_row[i];
            } else {
                v_row[i] = mu * v_row[i] + step * input[i];
            }
            w_row[i] += v_row[i];
        }
        v_b1_[h] = mu * v_b1_[h] + step;
        b1_[h] += v_b1_[h];
    }
    return err;
}

std::vector<double>
Mlp::inputSaliencyDelta() const
{
    std::vector<double> out(config_.inputs, 0.0);
    for (size_t h = 0; h < config_.hidden; ++h) {
        const auto row = w1_.row(h);
        const auto init = w1_init_.row(h);
        for (size_t i = 0; i < config_.inputs; ++i)
            out[i] += std::fabs(
                static_cast<double>(row[i]) - init[i]);
    }
    for (auto &v : out)
        v /= static_cast<double>(config_.hidden);
    return out;
}

std::vector<double>
Mlp::inputSaliency() const
{
    std::vector<double> out(config_.inputs, 0.0);
    for (size_t h = 0; h < config_.hidden; ++h) {
        const auto row = w1_.row(h);
        for (size_t i = 0; i < config_.inputs; ++i)
            out[i] += std::fabs(static_cast<double>(row[i]));
    }
    for (auto &v : out)
        v /= static_cast<double>(config_.hidden);
    return out;
}

} // namespace rlr::ml
