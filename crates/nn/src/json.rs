//! JSON codecs for the persisted model types.
//!
//! The vendored `serde_json` stand-in serialises through explicit
//! [`ToJson`] / [`FromJson`] impls instead of derived serde traits.
//! This module is the schema for the two on-disk artifacts `io`
//! produces: hardware-ready [`QuantMlp`] models and [`FloatMlp`]
//! training checkpoints. Enums carry a `"kind"` tag; everything else
//! is a plain field-per-field object.

use crate::float::{ActSpec, BatchNorm, FloatLayer, FloatMlp, LayerSpec, MlpSpec};
use crate::qmodel::{BnParams, HiddenLayer, InputLayer, LayerActivation, OutputLayer, QuantMlp};
use crate::tensor::Matrix;
use netpu_arith::{Fix, Precision};
use serde_json::{Error, FromJson, Map, ToJson, Value};

fn obj(fields: Vec<(&'static str, Value)>) -> Value {
    let mut m = Map::new();
    for (k, v) in fields {
        m.insert(k.to_string(), v);
    }
    Value::Object(m)
}

fn kind_of(v: &Value) -> Result<&str, Error> {
    v["kind"]
        .as_str()
        .ok_or_else(|| Error::msg("expected tagged object with \"kind\""))
}

impl ToJson for BnParams {
    fn to_json(&self) -> Value {
        obj(vec![
            ("scale_q16", self.scale_q16.to_json()),
            ("offset", self.offset.to_json()),
        ])
    }
}

impl FromJson for BnParams {
    fn from_json(v: &Value) -> Result<BnParams, Error> {
        Ok(BnParams {
            scale_q16: i32::from_json(&v["scale_q16"])?,
            offset: Fix::from_json(&v["offset"])?,
        })
    }
}

/// A layer activation as JSON. Multi-Threshold rows are written nested,
/// one array of `2^out − 1` thresholds per neuron.
fn activation_to_json(act: &LayerActivation, out: Precision) -> Value {
    match act {
        LayerActivation::Relu { quant } => {
            obj(vec![("kind", "relu".into()), ("quant", quant.to_json())])
        }
        LayerActivation::Sigmoid { quant } => {
            obj(vec![("kind", "sigmoid".into()), ("quant", quant.to_json())])
        }
        LayerActivation::Tanh { quant } => {
            obj(vec![("kind", "tanh".into()), ("quant", quant.to_json())])
        }
        LayerActivation::Sign { thresholds } => obj(vec![
            ("kind", "sign".into()),
            ("thresholds", thresholds.to_json()),
        ]),
        LayerActivation::MultiThreshold { thresholds } => {
            let rows = thresholds
                .chunks(out.multi_threshold_count())
                .map(|row| row.to_vec().to_json())
                .collect();
            obj(vec![
                ("kind", "multi_threshold".into()),
                ("thresholds", Value::Array(rows)),
            ])
        }
    }
}

/// Reads [`activation_to_json`]'s form back: nested Multi-Threshold rows
/// of `2^out − 1` thresholds each, flattened.
fn activation_from_json(v: &Value, out: Precision) -> Result<LayerActivation, Error> {
    Ok(match kind_of(v)? {
        "relu" => LayerActivation::Relu {
            quant: FromJson::from_json(&v["quant"])?,
        },
        "sigmoid" => LayerActivation::Sigmoid {
            quant: FromJson::from_json(&v["quant"])?,
        },
        "tanh" => LayerActivation::Tanh {
            quant: FromJson::from_json(&v["quant"])?,
        },
        "sign" => LayerActivation::Sign {
            thresholds: FromJson::from_json(&v["thresholds"])?,
        },
        "multi_threshold" => {
            let rows: Vec<Vec<Fix>> = FromJson::from_json(&v["thresholds"])?;
            let count = out.multi_threshold_count();
            if let Some(row) = rows.iter().find(|row| row.len() != count) {
                return Err(Error::msg(format!(
                    "multi-threshold row of {} thresholds at {out} output ({count} expected)",
                    row.len()
                )));
            }
            LayerActivation::MultiThreshold {
                thresholds: rows.concat(),
            }
        }
        other => return Err(Error::msg(format!("unknown activation kind {other:?}"))),
    })
}

/// An FC layer's weights: integers in −128..=127, the byte every
/// precision's range lies within. Weight `i` outside it is refused
/// here, never wrapped; a byte outside its layer's precision is left to
/// [`QuantMlp::validate`].
fn weights_from_json(v: &Value) -> Result<Vec<i8>, Error> {
    let weights = v
        .as_array()
        .ok_or_else(|| Error::msg("weights: expected array"))?;
    (weights.iter().enumerate())
        .map(|(i, w)| {
            w.as_i64()
                .and_then(|w| i8::try_from(w).ok())
                .ok_or_else(|| {
                    Error::msg(format!("weight {i}: {w} is not an integer in -128..=127"))
                })
        })
        .collect()
}

impl ToJson for InputLayer {
    fn to_json(&self) -> Value {
        obj(vec![
            ("len", self.len.to_json()),
            ("out_precision", self.out_precision.to_json()),
            (
                "activation",
                activation_to_json(&self.activation, self.out_precision),
            ),
        ])
    }
}

impl FromJson for InputLayer {
    fn from_json(v: &Value) -> Result<InputLayer, Error> {
        let out_precision = FromJson::from_json(&v["out_precision"])?;
        Ok(InputLayer {
            len: usize::from_json(&v["len"])?,
            out_precision,
            activation: activation_from_json(&v["activation"], out_precision)?,
        })
    }
}

impl ToJson for HiddenLayer {
    fn to_json(&self) -> Value {
        obj(vec![
            ("in_len", self.in_len.to_json()),
            ("neurons", self.neurons.to_json()),
            ("weight_precision", self.weight_precision.to_json()),
            ("in_precision", self.in_precision.to_json()),
            ("out_precision", self.out_precision.to_json()),
            ("weights", self.weights.to_json()),
            ("bias", self.bias.to_json()),
            ("bn", self.bn.to_json()),
            (
                "activation",
                activation_to_json(&self.activation, self.out_precision),
            ),
        ])
    }
}

impl FromJson for HiddenLayer {
    fn from_json(v: &Value) -> Result<HiddenLayer, Error> {
        let out_precision = FromJson::from_json(&v["out_precision"])?;
        Ok(HiddenLayer {
            in_len: usize::from_json(&v["in_len"])?,
            neurons: usize::from_json(&v["neurons"])?,
            weight_precision: FromJson::from_json(&v["weight_precision"])?,
            in_precision: FromJson::from_json(&v["in_precision"])?,
            out_precision,
            weights: weights_from_json(&v["weights"])?,
            bias: FromJson::from_json(&v["bias"])?,
            bn: FromJson::from_json(&v["bn"])?,
            activation: activation_from_json(&v["activation"], out_precision)?,
        })
    }
}

impl ToJson for OutputLayer {
    fn to_json(&self) -> Value {
        obj(vec![
            ("in_len", self.in_len.to_json()),
            ("neurons", self.neurons.to_json()),
            ("weight_precision", self.weight_precision.to_json()),
            ("in_precision", self.in_precision.to_json()),
            ("weights", self.weights.to_json()),
            ("bias", self.bias.to_json()),
            ("bn", self.bn.to_json()),
        ])
    }
}

impl FromJson for OutputLayer {
    fn from_json(v: &Value) -> Result<OutputLayer, Error> {
        Ok(OutputLayer {
            in_len: usize::from_json(&v["in_len"])?,
            neurons: usize::from_json(&v["neurons"])?,
            weight_precision: FromJson::from_json(&v["weight_precision"])?,
            in_precision: FromJson::from_json(&v["in_precision"])?,
            weights: weights_from_json(&v["weights"])?,
            bias: FromJson::from_json(&v["bias"])?,
            bn: FromJson::from_json(&v["bn"])?,
        })
    }
}

impl ToJson for QuantMlp {
    fn to_json(&self) -> Value {
        obj(vec![
            ("name", self.name.to_json()),
            ("input", self.input.to_json()),
            ("hidden", self.hidden.to_json()),
            ("output", self.output.to_json()),
        ])
    }
}

impl FromJson for QuantMlp {
    fn from_json(v: &Value) -> Result<QuantMlp, Error> {
        // An FC layer's error names it as `ModelError` does: hidden
        // layers from 1, then the output layer.
        let in_layer = |layer: usize| move |e: Error| Error::msg(format!("layer {layer}: {e}"));
        let name = String::from_json(&v["name"])?;
        let input = FromJson::from_json(&v["input"])?;
        let hidden = (v["hidden"].as_array())
            .ok_or_else(|| Error::msg("hidden: expected array"))?
            .iter()
            .zip(1..)
            .map(|(h, layer)| HiddenLayer::from_json(h).map_err(in_layer(layer)))
            .collect::<Result<Vec<_>, _>>()?;
        let output = OutputLayer::from_json(&v["output"]).map_err(in_layer(hidden.len() + 1))?;
        Ok(QuantMlp {
            name,
            input,
            hidden,
            output,
        })
    }
}

impl ToJson for ActSpec {
    fn to_json(&self) -> Value {
        match *self {
            ActSpec::Sign => obj(vec![("kind", "sign".into())]),
            ActSpec::Hwgq { bits } => obj(vec![("kind", "hwgq".into()), ("bits", bits.to_json())]),
            ActSpec::ReluQuant { bits } => obj(vec![
                ("kind", "relu_quant".into()),
                ("bits", bits.to_json()),
            ]),
            ActSpec::SigmoidQuant { bits } => obj(vec![
                ("kind", "sigmoid_quant".into()),
                ("bits", bits.to_json()),
            ]),
            ActSpec::None => obj(vec![("kind", "none".into())]),
        }
    }
}

impl FromJson for ActSpec {
    fn from_json(v: &Value) -> Result<ActSpec, Error> {
        Ok(match kind_of(v)? {
            "sign" => ActSpec::Sign,
            "hwgq" => ActSpec::Hwgq {
                bits: u8::from_json(&v["bits"])?,
            },
            "relu_quant" => ActSpec::ReluQuant {
                bits: u8::from_json(&v["bits"])?,
            },
            "sigmoid_quant" => ActSpec::SigmoidQuant {
                bits: u8::from_json(&v["bits"])?,
            },
            "none" => ActSpec::None,
            other => return Err(Error::msg(format!("unknown act spec kind {other:?}"))),
        })
    }
}

impl ToJson for LayerSpec {
    fn to_json(&self) -> Value {
        obj(vec![
            ("neurons", self.neurons.to_json()),
            ("weight_bits", self.weight_bits.to_json()),
            ("act", self.act.to_json()),
            ("batch_norm", self.batch_norm.to_json()),
        ])
    }
}

impl FromJson for LayerSpec {
    fn from_json(v: &Value) -> Result<LayerSpec, Error> {
        Ok(LayerSpec {
            neurons: usize::from_json(&v["neurons"])?,
            weight_bits: u8::from_json(&v["weight_bits"])?,
            act: FromJson::from_json(&v["act"])?,
            batch_norm: bool::from_json(&v["batch_norm"])?,
        })
    }
}

impl ToJson for MlpSpec {
    fn to_json(&self) -> Value {
        obj(vec![
            ("name", self.name.to_json()),
            ("input_len", self.input_len.to_json()),
            ("input_act", self.input_act.to_json()),
            ("layers", self.layers.to_json()),
        ])
    }
}

impl FromJson for MlpSpec {
    fn from_json(v: &Value) -> Result<MlpSpec, Error> {
        Ok(MlpSpec {
            name: String::from_json(&v["name"])?,
            input_len: usize::from_json(&v["input_len"])?,
            input_act: FromJson::from_json(&v["input_act"])?,
            layers: FromJson::from_json(&v["layers"])?,
        })
    }
}

impl ToJson for BatchNorm {
    fn to_json(&self) -> Value {
        obj(vec![
            ("gamma", self.gamma.to_json()),
            ("beta", self.beta.to_json()),
            ("running_mean", self.running_mean.to_json()),
            ("running_var", self.running_var.to_json()),
            ("eps", self.eps.to_json()),
            ("momentum", self.momentum.to_json()),
        ])
    }
}

impl FromJson for BatchNorm {
    fn from_json(v: &Value) -> Result<BatchNorm, Error> {
        Ok(BatchNorm {
            gamma: FromJson::from_json(&v["gamma"])?,
            beta: FromJson::from_json(&v["beta"])?,
            running_mean: FromJson::from_json(&v["running_mean"])?,
            running_var: FromJson::from_json(&v["running_var"])?,
            eps: f32::from_json(&v["eps"])?,
            momentum: f32::from_json(&v["momentum"])?,
        })
    }
}

impl ToJson for Matrix {
    fn to_json(&self) -> Value {
        obj(vec![
            ("rows", self.rows().to_json()),
            ("cols", self.cols().to_json()),
            ("data", self.data().to_vec().to_json()),
        ])
    }
}

impl FromJson for Matrix {
    fn from_json(v: &Value) -> Result<Matrix, Error> {
        let rows = usize::from_json(&v["rows"])?;
        let cols = usize::from_json(&v["cols"])?;
        let data: Vec<f32> = FromJson::from_json(&v["data"])?;
        if data.len() != rows * cols {
            return Err(Error::msg("Matrix: data length does not match shape"));
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }
}

impl ToJson for FloatLayer {
    fn to_json(&self) -> Value {
        obj(vec![
            ("w", self.w.to_json()),
            ("b", self.b.to_json()),
            ("bn", self.bn.to_json()),
            ("spec", self.spec.to_json()),
        ])
    }
}

impl FromJson for FloatLayer {
    fn from_json(v: &Value) -> Result<FloatLayer, Error> {
        Ok(FloatLayer {
            w: FromJson::from_json(&v["w"])?,
            b: FromJson::from_json(&v["b"])?,
            bn: FromJson::from_json(&v["bn"])?,
            spec: FromJson::from_json(&v["spec"])?,
        })
    }
}

impl ToJson for FloatMlp {
    fn to_json(&self) -> Value {
        obj(vec![
            ("spec", self.spec.to_json()),
            ("layers", self.layers.to_json()),
        ])
    }
}

impl FromJson for FloatMlp {
    fn from_json(v: &Value) -> Result<FloatMlp, Error> {
        Ok(FloatMlp {
            spec: FromJson::from_json(&v["spec"])?,
            layers: FromJson::from_json(&v["layers"])?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qmodel::tests::tiny_model;
    use crate::qmodel::ModelError;

    #[test]
    fn quant_mlp_value_roundtrips() {
        let m = tiny_model();
        let v = m.to_json();
        assert_eq!(QuantMlp::from_json(&v).unwrap(), m);
    }

    /// The tiny model's JSON with output weight 4 and hidden weight 7
    /// written as `out` and `hidden`, parsed.
    fn parse_with(out: &str, hidden: &str) -> Result<QuantMlp, Error> {
        let m = tiny_model();
        let text = serde_json::to_string(&m).unwrap();
        let text = text.replacen("[1,-1,1,-1,1,0]", &format!("[1,-1,1,-1,{out},0]"), 1);
        let text = text.replacen(
            "[1,-1,0,1,-2,1,1,0,0,1,-1,-1]",
            &format!("[1,-1,0,1,-2,1,1,{hidden},0,1,-1,-1]"),
            1,
        );
        serde_json::from_str(&text)
    }

    #[test]
    fn weights_outside_a_byte_are_refused_at_parse() {
        assert_eq!(parse_with("1", "0").unwrap(), tiny_model());
        // 127 is a byte: parsed, then refused by the W2 range check, or
        // kept by a W8 layer.
        let m = parse_with("127", "0").unwrap();
        assert_eq!(m.output.weights[4], 127);
        assert_eq!(
            m.validate(),
            Err(ModelError::WeightRange {
                layer: 2,
                value: 127
            })
        );
        let mut wide = m.clone();
        wide.output.weight_precision = Precision::W8;
        wide.validate().unwrap();
        // Past a byte: refused at parse, naming layer and index, never
        // wrapped into range.
        let err = parse_with("128", "0").unwrap_err().to_string();
        assert_eq!(
            err,
            "layer 2: weight 4: 128 is not an integer in -128..=127"
        );
        let err = parse_with("1", "-129").unwrap_err().to_string();
        assert_eq!(
            err,
            "layer 1: weight 7: -129 is not an integer in -128..=127"
        );
        assert!(parse_with("1.5", "0").is_err());
    }

    #[test]
    fn an_in_byte_stray_is_left_to_validate() {
        // 5 is a byte but not a W2 weight: the same error as before.
        let m = parse_with("1", "5").unwrap();
        assert_eq!(m.hidden[0].weights[7], 5);
        assert_eq!(
            m.validate(),
            Err(ModelError::WeightRange { layer: 1, value: 5 })
        );
    }

    #[test]
    fn multi_threshold_rows_stay_nested_on_disk() {
        // One array per neuron in the file, one flat array in memory.
        let m = tiny_model();
        let v = m.to_json();
        let rows = v["input"]["activation"]["thresholds"].as_array().unwrap();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.as_array().unwrap().len() == 3));
        // A row of the wrong length is refused, not regrouped.
        let mut nested = rows.clone();
        nested[1] = vec![Fix::ZERO; 2].to_json();
        let ragged = obj(vec![
            ("kind", "multi_threshold".into()),
            ("thresholds", Value::Array(nested)),
        ]);
        assert!(activation_from_json(&ragged, Precision::W2).is_err());
    }

    #[test]
    fn activation_kind_tag_rejects_unknown() {
        let v = obj(vec![("kind", "warp_drive".into())]);
        assert!(activation_from_json(&v, Precision::W2).is_err());
        assert!(ActSpec::from_json(&v).is_err());
    }

    #[test]
    fn matrix_shape_is_checked() {
        let v = obj(vec![
            ("rows", 2.to_json()),
            ("cols", 3.to_json()),
            ("data", vec![0.0f32; 5].to_json()),
        ]);
        assert!(Matrix::from_json(&v).is_err());
    }
}
