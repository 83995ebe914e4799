//! Seeded inputs shared by the workloads and the layer ladder. The
//! product sees only what is generated here; `--seed` drives every
//! `synth::*` seed. `plan_cold` and `paper_figs` take no data: their
//! shapes are the published networks'.

use eyeriss::nn::network::{Network, NetworkBuilder};
use eyeriss::nn::{alexnet, reference, synth, Fix16, LayerShape, Tensor4};

/// One CONV problem with its data and the golden psums from
/// `nn::reference`, computed in set-up so the timed loop only compares.
#[derive(Debug, Clone)]
pub struct ConvCase {
    /// Suffix of the case's `sim.ns_per_mac.*` metric.
    pub name: &'static str,
    pub shape: LayerShape,
    pub batch: usize,
    pub input: Tensor4<Fix16>,
    pub weights: Tensor4<Fix16>,
    pub bias: Vec<Fix16>,
    pub golden: Tensor4<i32>,
}

impl ConvCase {
    pub fn macs(&self) -> u64 {
        self.shape.macs(self.batch)
    }
}

/// The seven dense-rota geometries: the five AlexNet CONV layers shrunk
/// the way the tier-1 `alexnet_slice` shrinks them (filter size and
/// stride kept, the plane cut to at most 31 output rows, a handful of
/// channels), with two differences. The plane is cut to a whole number
/// of strides, or CONV1 (stride 4) would be no valid shape; and CONV3-5
/// keep their 384:384:256 / 256:192:192 filter and channel ratios,
/// because cut to one size they would be one shape three times. Then a
/// 32-filter 3x3 layer and a VGG-style 3x3 at batch 2.
fn rota_shapes() -> Vec<(&'static str, LayerShape, usize)> {
    let names = ["conv1", "conv2", "conv3", "conv4", "conv5"];
    let widths = [(4, 4), (4, 4), (6, 4), (6, 3), (4, 3)];
    let mut out: Vec<_> = alexnet::conv_layers()
        .iter()
        .zip(names)
        .zip(widths)
        .map(|((l, name), (m, c))| {
            let s = &l.shape;
            let e = s.e.min(30 / s.u + 1);
            let shape = LayerShape::conv(m, s.c.min(c), s.r + (e - 1) * s.u, s.r, s.u)
                .expect("shrunk AlexNet shapes are valid");
            (name, shape, 1)
        })
        .collect();
    let conv = |m, c, h| LayerShape::conv(m, c, h, 3, 1).expect("valid 3x3 shape");
    out.push(("conv3x32", conv(32, 16, 15), 1));
    out.push(("vgg3x3", conv(8, 8, 33), 2));
    out
}

/// The rota with `sparsity` of the ifmap values zeroed (0 = dense).
pub fn conv_rota(seed: u64, sparsity: f64) -> Vec<ConvCase> {
    rota_shapes()
        .into_iter()
        .enumerate()
        .map(|(i, (name, shape, batch))| {
            let s = seed.wrapping_mul(1000).wrapping_add(i as u64 * 3);
            let input = if sparsity > 0.0 {
                synth::sparse_ifmap(&shape, batch, s, sparsity)
            } else {
                synth::ifmap(&shape, batch, s)
            };
            let weights = synth::filters(&shape, s + 1);
            let bias = synth::biases(&shape, s + 2);
            let golden = reference::conv_accumulate(&shape, batch, &input, &weights, &bias);
            ConvCase {
                name,
                shape,
                batch,
                input,
                weights,
                bias,
                golden,
            }
        })
        .collect()
}

/// The served network: the shape of `analysis::experiments::serving::
/// synthetic_net()`, with weights from the run's seed.
pub fn serve_net(seed: u64) -> Network {
    NetworkBuilder::new(3, 31)
        .conv("C1", 12, 3, 2)
        .expect("valid stage")
        .pool("P1", 3, 2)
        .expect("valid stage")
        .conv("C2", 16, 3, 1)
        .expect("valid stage")
        .fully_connected("FC", 10)
        .expect("valid stage")
        .build(seed)
}

/// Request inputs with the outputs `Network::forward` gives for them.
pub fn request_pool(net: &Network, seed: u64, len: usize) -> Vec<(Tensor4<Fix16>, Tensor4<Fix16>)> {
    let shape = net.stages()[0].shape;
    (0..len as u64)
        .map(|i| {
            let input = synth::ifmap(&shape, 1, seed.wrapping_mul(7919).wrapping_add(i));
            let golden = net.forward(1, &input);
            (input, golden)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let (a, b, c) = (conv_rota(5, 0.6), conv_rota(5, 0.6), conv_rota(6, 0.6));
        assert_eq!(a.len(), 7);
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.input, y.input);
            assert_eq!(x.golden, y.golden);
            assert_ne!(x.input, z.input);
        }
    }

    #[test]
    fn the_rota_shapes_are_distinct() {
        let shapes = rota_shapes();
        for (i, a) in shapes.iter().enumerate() {
            for b in &shapes[i + 1..] {
                assert_ne!((a.1, a.2), (b.1, b.2), "{} == {}", a.0, b.0);
            }
        }
    }
}
