/**
 * @file
 * The paper's Q-network: a multi-layer perceptron with one tanh
 * hidden layer and a linear output layer (334-175-16 for a 16-way
 * LLC), trained by SGD with momentum on per-action TD errors.
 */

#ifndef RLR_ML_MLP_HH
#define RLR_ML_MLP_HH

#include <cstddef>
#include <span>
#include <vector>

#include "ml/matrix.hh"
#include "util/rng.hh"

namespace rlr::ml
{

/** MLP hyperparameters. */
struct MlpConfig
{
    size_t inputs = 334;
    size_t hidden = 175;
    size_t outputs = 16;
    float learning_rate = 1e-3f;
    float momentum = 0.9f;
};

/** One-hidden-layer perceptron with tanh/linear activations. */
class Mlp
{
  public:
    Mlp(MlpConfig config, uint64_t seed);

    /** Forward pass; returns the output vector (size outputs). */
    std::vector<float> forward(std::span<const float> input) const;

    /**
     * SGD update for a single (input, action, target) example:
     * only the chosen action's output contributes to the loss
     * 0.5*(target - q[action])^2, as in DQN.
     * @return the TD error (target - prediction).
     */
    float trainAction(std::span<const float> input, size_t action,
                      float target);

    /** Mean squared TD error over a batch (diagnostics). */
    double lastBatchLoss() const { return last_loss_; }

    const MlpConfig &config() const { return config_; }

    /** First-layer weights (hidden x inputs) for analysis. */
    const Matrix &inputWeights() const { return w1_; }
    /** Output-layer weights (outputs x hidden). */
    const Matrix &outputWeights() const { return w2_; }

    /**
     * Mean absolute first-layer weight per input neuron — the
     * quantity behind the paper's Figure 3 heat map.
     */
    std::vector<double> inputSaliency() const;

    /**
     * Mean absolute *learned* first-layer weight change per input
     * neuron (|w - w_init|). Separates trained structure from the
     * random initialization, which dominates after short training
     * runs.
     */
    std::vector<double> inputSaliencyDelta() const;

  private:
    MlpConfig config_;
    Matrix w1_;           // hidden x inputs
    Matrix w1_init_;      // snapshot at construction (analysis)
    std::vector<float> b1_;
    Matrix w2_;           // outputs x hidden
    std::vector<float> b2_;

    Matrix v_w1_; // momentum buffers
    std::vector<float> v_b1_;
    Matrix v_w2_;
    std::vector<float> v_b2_;

    /** trainAction() scratch: hidden activations and their
     *  deltas, sized once so a training step allocates nothing. */
    std::vector<float> hidden_;
    std::vector<float> delta_h_;

    double last_loss_ = 0.0;
};

} // namespace rlr::ml

#endif // RLR_ML_MLP_HH
